package oocexec

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/liu"
	"repro/internal/memsim"
	"repro/internal/randtree"
	"repro/internal/tree"
)

// hashCompute is a deterministic "factorization": every output byte mixes
// the node id with all input bytes, so any lost or reordered spill bytes
// change the root output.
func hashCompute(t *tree.Tree, unit int) Compute {
	return func(node int, inputs map[int][]byte) ([]byte, error) {
		var acc uint64 = 1469598103934665603
		mix := func(b byte) {
			acc ^= uint64(b)
			acc *= 1099511628211
		}
		mix(byte(node))
		// Deterministic input order: by child id as stored in the tree.
		for _, c := range t.Children(node) {
			buf, ok := inputs[c]
			if !ok {
				return nil, fmt.Errorf("missing input %d", c)
			}
			mix(byte(c))
			for _, b := range buf {
				mix(b)
			}
		}
		out := make([]byte, t.Weight(node)*int64(unit))
		for i := range out {
			mix(byte(i))
			out[i] = byte(acc >> 32)
		}
		return out, nil
	}
}

func synth(n int, seed int64) *tree.Tree {
	return randtree.Synth(n, rand.New(rand.NewSource(seed)))
}

func TestExecuteMatchesInCoreRun(t *testing.T) {
	const unit = 16
	for _, seed := range []int64{1, 2, 3} {
		tr := synth(60, seed)
		sched, peak := liu.MinMem(tr)
		f := hashCompute(tr, unit)
		// In-core reference.
		want, st, err := Execute(tr, peak, sched, Config{UnitSize: unit}, f)
		if err != nil {
			t.Fatal(err)
		}
		if st.UnitsWritten != 0 {
			t.Fatalf("in-core run spilled %d units", st.UnitsWritten)
		}
		// Out-of-core at several bounds, both stores.
		lb := tr.MaxWBar()
		for _, M := range []int64{lb, (lb + peak) / 2, peak - 1} {
			if M < lb {
				continue
			}
			for _, dir := range []string{"", t.TempDir()} {
				got, st, err := Execute(tr, M, sched, Config{UnitSize: unit, SpillDir: dir}, f)
				if err != nil {
					t.Fatalf("seed=%d M=%d dir=%q: %v", seed, M, dir, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed=%d M=%d dir=%q: out-of-core result differs", seed, M, dir)
				}
				if st.UnitsRead != st.UnitsWritten {
					t.Fatalf("reads %d ≠ writes %d", st.UnitsRead, st.UnitsWritten)
				}
				if st.BytesWritten != st.UnitsWritten*unit {
					t.Fatalf("byte accounting")
				}
			}
		}
	}
}

func TestExecuteSpillVolumeMatchesPlanner(t *testing.T) {
	// The executor's realized spill volume must equal the simulator's
	// FiF τ total: both implement the same policy.
	for _, seed := range []int64{4, 5, 6, 7} {
		tr := synth(80, seed)
		sched, peak := liu.MinMem(tr)
		lb := tr.MaxWBar()
		if peak <= lb {
			continue
		}
		M := (lb + peak) / 2
		plan, err := memsim.Run(tr, M, sched, memsim.FiF)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := Execute(tr, M, sched, Config{UnitSize: 8}, hashCompute(tr, 8))
		if err != nil {
			t.Fatal(err)
		}
		if st.UnitsWritten != plan.IO {
			t.Fatalf("seed=%d: executor spilled %d units, planner predicted %d",
				seed, st.UnitsWritten, plan.IO)
		}
		if st.PeakResidentUnits > M {
			t.Fatalf("seed=%d: peak resident %d exceeds M=%d", seed, st.PeakResidentUnits, M)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	tr := tree.Graft(1, tree.Chain(3, 5), tree.Chain(3, 5))
	sched, _ := liu.MinMem(tr)
	f := hashCompute(tr, 4)
	if _, _, err := Execute(tr, 4, sched, Config{UnitSize: 4}, f); err == nil {
		t.Error("M below w̄ accepted")
	}
	if _, _, err := Execute(tr, 8, tree.Schedule{0, 1, 2, 3, 4}, Config{}, f); err == nil {
		t.Error("non-topological schedule accepted")
	}
	bad := func(node int, inputs map[int][]byte) ([]byte, error) {
		return nil, fmt.Errorf("boom")
	}
	if _, _, err := Execute(tr, 8, sched, Config{UnitSize: 4}, bad); err == nil {
		t.Error("compute error swallowed")
	}
	short := func(node int, inputs map[int][]byte) ([]byte, error) {
		return []byte{1}, nil
	}
	if _, _, err := Execute(tr, 8, sched, Config{UnitSize: 4}, short); err == nil {
		t.Error("wrong output size accepted")
	}
}

// TestEvictionReleasesBuffer: a fully evicted output must leave memory,
// and reading it back must cost one buffer. Node 1 (W units) runs first,
// then node 3 (W+1 units) under M = W+1 evicts all of it. Inside
// Compute(3) the model holds exactly w̄(3) = M units, the task's own
// output, so with the file store the live heap may grow by M·UnitSize plus
// slack; a spilled buffer the executor still reaches adds another
// W·UnitSize. Beyond Compute's outputs, Execute may allocate the reloaded
// buffer (the spilled bytes) plus slack, and the memory store one more
// copy of the spilled bytes.
func TestEvictionReleasesBuffer(t *testing.T) {
	const unit = 16
	const W = 1 << 20 // 16 MiB per output
	const slack = 1 << 20
	tr := tree.MustNew([]int{tree.None, 0, 0, 2}, []int64{1, W, 1, W + 1})
	M := int64(W + 1)
	var outputs int64
	for v := range tr.N() {
		outputs += tr.Weight(v) * unit
	}
	memStats := func() *runtime.MemStats {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return &ms
	}
	for _, tc := range []struct {
		store  string
		dir    string
		copies int64 // of the spilled bytes Execute may allocate
	}{
		{"file", t.TempDir(), 1},
		{"memory", "", 2},
	} {
		var during uint64
		f := func(node int, inputs map[int][]byte) ([]byte, error) {
			out := make([]byte, tr.Weight(node)*unit)
			if node == 3 {
				during = memStats().HeapAlloc
			}
			return out, nil
		}
		before := memStats()
		_, st, err := Execute(tr, M, tree.Schedule{1, 3, 2, 0}, Config{UnitSize: unit, SpillDir: tc.dir}, f)
		if err != nil {
			t.Fatal(err)
		}
		after := memStats()
		if st.UnitsWritten != W || st.UnitsRead != W {
			t.Fatalf("%s: wrote %d and read %d units, want %d each", tc.store, st.UnitsWritten, st.UnitsRead, W)
		}
		if tc.dir != "" {
			const heapSlack = 4 << 20
			if grown, limit := int64(during-before.HeapAlloc), M*unit+heapSlack; grown > limit {
				t.Fatalf("live heap inside Compute(3) grew by %d MiB, limit %d MiB: the evicted output is still reachable",
					grown>>20, limit>>20)
			}
		}
		alloc := int64(after.TotalAlloc-before.TotalAlloc) - outputs
		if limit := tc.copies*st.BytesWritten + slack; alloc > limit {
			t.Fatalf("%s store: Execute allocated %d MiB beyond Compute's outputs to move %d MiB, limit %d MiB",
				tc.store, alloc>>20, st.BytesWritten>>20, limit>>20)
		}
	}
}

func TestStoreChunkOrder(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s, err := newStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Evictions cut suffixes back to front: [6,9) first, then [2,6).
		if err := s.write(5, []byte{6, 7, 8}); err != nil {
			t.Fatal(err)
		}
		if err := s.write(5, []byte{2, 3, 4, 5}); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{6, 8} {
			if err := s.read(5, make([]byte, n)); err == nil {
				t.Errorf("dir=%q: read into %d bytes of a 7-byte spill accepted", dir, n)
			}
		}
		got := make([]byte, 7)
		if err := s.read(5, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte{2, 3, 4, 5, 6, 7, 8}) {
			t.Fatalf("dir=%q: reassembled %v", dir, got)
		}
		if err := s.read(5, got); err == nil {
			t.Errorf("dir=%q: double read accepted", dir)
		}
		if err := s.read(99, nil); err == nil {
			t.Errorf("dir=%q: read of unspilled node accepted", dir)
		}
		if err := s.cleanup(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileStoreResetsWhenEmpty: the end offset is the end of the highest
// extent still holding data, so it falls back when the top chunks are read
// and returns to 0 once no node holds spilled data; every chunk written
// before and after reads back intact.
func TestFileStoreResetsWhenEmpty(t *testing.T) {
	open := func(t *testing.T) (write func(node int, data ...byte), read func(node int, want ...byte), s *fileStore) {
		st, err := newStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s = st.(*fileStore)
		t.Cleanup(func() { s.cleanup() })
		write = func(node int, data ...byte) {
			t.Helper()
			if err := s.write(node, data); err != nil {
				t.Fatal(err)
			}
		}
		read = func(node int, want ...byte) {
			t.Helper()
			got := make([]byte, len(want))
			if err := s.read(node, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("node %d read back %v, want %v", node, got, want)
			}
		}
		return write, read, s
	}
	wantEnd := func(t *testing.T, s *fileStore, want int64, when string) {
		t.Helper()
		if s.end != want {
			t.Fatalf("end offset %d %s, want %d", s.end, when, want)
		}
	}
	t.Run("interleaved", func(t *testing.T) {
		write, read, s := open(t)
		write(1, 3, 4)
		write(2, 9)
		write(1, 1, 2)
		read(1, 1, 2, 3, 4)
		wantEnd(t, s, 3, "with node 2's chunk the highest live extent")
		write(3, 7, 8)
		read(2, 9)
		wantEnd(t, s, 5, "while node 3 still holds data")
		read(3, 7, 8)
		wantEnd(t, s, 0, "with nothing spilled")
		write(4, 6, 6, 6)
		if off := s.stack[s.nodes[4][0]].off; off != 0 {
			t.Fatalf("first write after the reset at offset %d, want 0", off)
		}
		write(4, 5)
		read(4, 5, 6, 6, 6)
		fi, err := s.f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != 5 {
			t.Fatalf("spill file holds %d bytes, want the high-water 5", fi.Size())
		}
	})
	t.Run("read top first", func(t *testing.T) {
		write, read, s := open(t)
		write(1, 1, 2, 3) // A
		write(2, 4, 5)    // B
		read(2, 4, 5)
		wantEnd(t, s, 3, "after reading B")
		write(3, 6)
		if off := s.stack[s.nodes[3][0]].off; off != 3 {
			t.Fatalf("write after reading B at offset %d, want A's end 3", off)
		}
		read(1, 1, 2, 3)
		read(3, 6)
		wantEnd(t, s, 0, "with nothing spilled")
	})
	t.Run("read bottom first", func(t *testing.T) {
		write, read, s := open(t)
		write(1, 1, 2, 3) // A
		write(2, 4, 5)    // B
		read(1, 1, 2, 3)
		wantEnd(t, s, 5, "while B still holds data")
		read(2, 4, 5)
		wantEnd(t, s, 0, "with nothing spilled")
	})
}

// TestExecuteSpillDir: Execute leaves SpillDir empty whether it succeeds
// or Compute fails, and a missing SpillDir fails before the first task.
func TestExecuteSpillDir(t *testing.T) {
	tr := synth(60, 2)
	sched, _ := liu.MinMem(tr)
	M := tr.MaxWBar()
	dir := t.TempDir()
	empty := func(when string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("%s: spill dir holds %d entries, e.g. %s", when, len(entries), entries[0].Name())
		}
	}
	f := hashCompute(tr, 8)
	_, st, err := Execute(tr, M, sched, Config{UnitSize: 8, SpillDir: dir}, f)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spills == 0 {
		t.Fatal("instance does not spill")
	}
	empty("after success")

	calls := 0
	failing := func(node int, inputs map[int][]byte) ([]byte, error) {
		if calls++; calls == len(sched)/2 {
			return nil, errors.New("boom")
		}
		return f(node, inputs)
	}
	if _, _, err := Execute(tr, M, sched, Config{UnitSize: 8, SpillDir: dir}, failing); err == nil {
		t.Fatal("compute error swallowed")
	}
	empty("after a Compute error")

	ran := false
	never := func(node int, inputs map[int][]byte) ([]byte, error) {
		ran = true
		return f(node, inputs)
	}
	_, _, err = Execute(tr, M, sched, Config{UnitSize: 8, SpillDir: filepath.Join(dir, "missing")}, never)
	if err == nil || ran {
		t.Fatalf("missing spill dir: err=%v, a task ran=%v", err, ran)
	}
}

// TestComputeSeesExactlyItsChildren guards the reused inputs map: every
// call sees exactly its task's children, also after a task wider than one
// map group. Node 1 has 10 children; chains hang below node 2.
func TestComputeSeesExactlyItsChildren(t *testing.T) {
	parent := []int{tree.None, 0, 0}
	for range 10 {
		parent = append(parent, 1) // nodes 3..12
	}
	parent = append(parent, 2, 13, 14, 15, 15) // chain 2 ← 13 ← 14 ← 15, leaves 16, 17
	weight := make([]int64, len(parent))
	for i := range weight {
		weight[i] = int64(1 + i%3)
	}
	tr := tree.MustNew(parent, weight)
	sched := tree.Schedule{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 16, 17, 15, 14, 13, 2, 0}
	_, peak := liu.MinMem(tr)
	for _, M := range []int64{tr.MaxWBar(), peak} {
		seen := 0
		f := func(node int, inputs map[int][]byte) ([]byte, error) {
			seen++
			if len(inputs) != tr.NumChildren(node) {
				return nil, fmt.Errorf("task %d got %d inputs, has %d children", node, len(inputs), tr.NumChildren(node))
			}
			for _, c := range tr.Children(node) {
				if _, ok := inputs[c]; !ok {
					return nil, fmt.Errorf("task %d: input of child %d missing", node, c)
				}
			}
			return make([]byte, tr.Weight(node)), nil
		}
		if _, _, err := Execute(tr, M, sched, Config{UnitSize: 1}, f); err != nil {
			t.Fatalf("M=%d: %v", M, err)
		}
		if seen != tr.N() {
			t.Fatalf("M=%d: Compute ran %d times, want %d", M, seen, tr.N())
		}
	}
}
