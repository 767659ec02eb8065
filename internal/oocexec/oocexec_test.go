package oocexec

import (
	"bytes"
	"fmt"
	"math/rand"
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

// TestEvictionReleasesBuffer: a fully evicted output must leave memory.
// Node 1 (W units) runs first, then node 3 (W+1 units) under M = W+1
// evicts all of it to the file store. Inside Compute(3) the model holds
// exactly w̄(3) = M units, the task's own output, so the live heap may
// grow by M·UnitSize plus slack; a spilled buffer the executor still
// reaches adds another W·UnitSize.
func TestEvictionReleasesBuffer(t *testing.T) {
	const unit = 16
	const W = 1 << 20 // 16 MiB per output
	tr := tree.MustNew([]int{tree.None, 0, 0, 2}, []int64{1, W, 1, W + 1})
	M := int64(W + 1)
	heapAlloc := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var during int64
	f := func(node int, inputs map[int][]byte) ([]byte, error) {
		out := make([]byte, tr.Weight(node)*unit)
		if node == 3 {
			during = heapAlloc()
		}
		return out, nil
	}
	base := heapAlloc()
	_, st, err := Execute(tr, M, tree.Schedule{1, 3, 2, 0}, Config{UnitSize: unit, SpillDir: t.TempDir()}, f)
	if err != nil {
		t.Fatal(err)
	}
	if st.UnitsWritten != W || st.UnitsRead != W {
		t.Fatalf("wrote %d and read %d units, want %d each", st.UnitsWritten, st.UnitsRead, W)
	}
	const slack = 4 << 20
	if grown, limit := during-base, M*unit+slack; grown > limit {
		t.Fatalf("live heap inside Compute(3) grew by %d MiB, limit %d MiB: the evicted output is still reachable",
			grown>>20, limit>>20)
	}
}

func TestStoreChunkOrder(t *testing.T) {
	for _, mk := range []func() spillStore{
		func() spillStore { return &memStore{chunks: map[int][][]byte{}} },
		func() spillStore {
			s, err := newStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	} {
		s := mk()
		// Evictions cut suffixes back to front: [6,9) first, then [2,6).
		if err := s.write(5, []byte{6, 7, 8}); err != nil {
			t.Fatal(err)
		}
		if err := s.write(5, []byte{2, 3, 4, 5}); err != nil {
			t.Fatal(err)
		}
		got, err := s.read(5)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte{2, 3, 4, 5, 6, 7, 8}) {
			t.Fatalf("reassembled %v", got)
		}
		if _, err := s.read(5); err == nil {
			t.Error("double read accepted")
		}
		if _, err := s.read(99); err == nil {
			t.Error("read of unspilled node accepted")
		}
		if err := s.cleanup(); err != nil {
			t.Fatal(err)
		}
	}
}
