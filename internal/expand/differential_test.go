package expand

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/liu"
	"repro/internal/memsim"
	"repro/internal/randtree"
	"repro/internal/tree"
)

// TestRecExpandMatchesReference is the differential guarantee of the
// incremental engine: on random instances spanning all victim policies and
// per-node budgets, RecExpand (memoized profiles + in-place allocation-free
// simulation) must reproduce the reference extract-and-rescan engine
// bit-for-bit — same schedule, same expansion sequence length, same I/O
// accounting — and both schedules must be valid traversals of the original
// tree.
func TestRecExpandMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	tried := 0
	for trial := 0; tried < 220; trial++ {
		var tr *tree.Tree
		if trial%3 == 0 {
			tr = randtree.Synth(20+rng.Intn(150), rng)
		} else {
			tr = randomTree(2+rng.Intn(60), rng)
		}
		lb := tr.MaxWBar()
		_, peak := liu.MinMem(tr)
		if peak <= lb {
			continue
		}
		M := lb + rng.Int63n(peak-lb)
		opts := Options{
			MaxPerNode: []int{0, 1, 2, 5}[rng.Intn(4)],
			Victim:     []VictimPolicy{LatestParent, EarliestParent, LargestTau}[rng.Intn(3)],
		}
		if rng.Intn(8) == 0 {
			opts.GlobalCap = 1 + rng.Intn(4)
		}
		tried++
		got, err := RecExpand(tr, M, opts)
		if err != nil {
			t.Fatalf("trial %d: incremental engine: %v", trial, err)
		}
		want, err := ReferenceRecExpand(tr, M, opts)
		if err != nil {
			t.Fatalf("trial %d: reference engine: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: engines diverge (opts=%+v M=%d n=%d)\nincremental: %+v\nreference:   %+v",
				trial, opts, M, tr.N(), got, want)
		}
		if err := tree.Validate(tr, got.Schedule); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
		if sim, err := memsim.Run(tr, M, got.Schedule, memsim.FiF); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		} else if sim.IO != got.SimulatedIO {
			t.Fatalf("trial %d: declared simulated IO %d, resimulated %d", trial, got.SimulatedIO, sim.IO)
		}
	}
	if tried < 200 {
		t.Fatalf("only %d I/O-bound instances generated, need >= 200", tried)
	}
}

// TestInPlaceSimulatorMatchesExtracted pins the low-level equivalence the
// engine relies on: simulating a subtree schedule in place on the mutable
// tree (child-rank tie-breaking) gives the same τ, I/O and peak as
// extracting the subtree and running the public memsim.Run on the copy
// (id tie-breaking), even after expansions have spliced high-id nodes into
// the middle of child lists.
func TestInPlaceSimulatorMatchesExtracted(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sim := memsim.NewSimulator()
	for trial := 0; trial < 150; trial++ {
		tr := randomTree(3+rng.Intn(30), rng)
		m := NewMutable(tr)
		m.EnableProfiles()
		// Random expansions to desynchronize ids from child ranks.
		for e := 0; e < rng.Intn(6); e++ {
			v := rng.Intn(m.N())
			if w := m.Weight(v); w > 1 {
				if _, _, err := m.Expand(v, 1+rng.Int63n(w)); err != nil {
					t.Fatal(err)
				}
			}
		}
		r := m.Root()
		sched := m.AppendMinMemSchedule(r, nil)
		sub, toMut := m.Subtree(r)
		subSched, _ := liu.MinMem(sub)
		lb := sub.MaxWBar()
		peak := m.SubtreePeak(r)
		M := lb
		if peak > lb {
			M = lb + rng.Int63n(peak-lb+1)
		}
		io, pk, err := sim.Run(m, r, M, sched, memsim.FiF)
		if err != nil {
			t.Fatalf("trial %d: in-place: %v", trial, err)
		}
		want, err := memsim.Run(sub, M, subSched, memsim.FiF)
		if err != nil {
			t.Fatalf("trial %d: extracted: %v", trial, err)
		}
		if io != want.IO || pk != want.Peak {
			t.Fatalf("trial %d: in-place io=%d peak=%d, extracted io=%d peak=%d",
				trial, io, pk, want.IO, want.Peak)
		}
		tau := sim.Tau()
		for k, mut := range toMut {
			if tau[mut] != want.Tau[k] {
				t.Fatalf("trial %d: τ mismatch at extracted node %d (mutable %d): %d vs %d",
					trial, k, mut, tau[mut], want.Tau[k])
			}
		}
	}
}

// TestSimulatorZeroAllocWarm guards the allocation-free property of the
// inner loop: a warm Simulator re-running a schedule on the same tree must
// not allocate at all.
func TestSimulatorZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randtree.Synth(2000, rng)
	lb := tr.MaxWBar()
	schedT, peak := liu.MinMem(tr)
	sched := []int(schedT)
	M := (lb + peak) / 2
	sim := memsim.NewSimulator()
	if _, _, err := sim.Run(tr, tr.Root(), M, sched, memsim.FiF); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := sim.Run(tr, tr.Root(), M, sched, memsim.FiF); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Simulator.Run allocates %.1f times per run, want 0", allocs)
	}
}

// TestSimulatorReservedForRoom: the engine reserves its simulator for the
// mutable tree's room, so simulating the tree while expansions grow it
// within that room never moves the simulator's arrays, and Reserve keeps
// the last run's τ readable.
func TestSimulatorReservedForRoom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randtree.Synth(2000, rng)
	schedT, peak := liu.MinMem(tr)
	M := (tr.MaxWBar() + peak) / 2
	sim := memsim.NewSimulator()
	if _, _, err := sim.Run(tr, tr.Root(), M, []int(schedT), memsim.FiF); err != nil {
		t.Fatal(err)
	}
	tau := append([]int64(nil), sim.Tau()...)
	m := NewMutable(tr)
	m.EnableProfiles()
	sim.Reserve(cap(m.parent))
	if !reflect.DeepEqual(sim.Tau(), tau) {
		t.Fatal("Reserve changed the last run's τ")
	}
	pos := &sim.Positions()[0]
	var sched []int
	expansions := 0
	for v := 0; v < tr.N() && m.N()+2 <= cap(m.parent); v++ {
		if v == tr.Root() || tr.Weight(v) == 0 {
			continue
		}
		if _, _, err := m.Expand(v, 1); err != nil {
			t.Fatal(err)
		}
		expansions++
		sched = m.AppendMinMemSchedule(m.Root(), sched[:0])
		if _, _, err := sim.Run(m, m.Root(), M, sched, memsim.FiF); err != nil {
			t.Fatal(err)
		}
		if &sim.Positions()[0] != pos {
			t.Fatalf("simulator arrays moved after %d expansions (%d nodes, room %d)", expansions, m.N(), cap(m.parent))
		}
	}
	if expansions < 32 {
		t.Fatalf("the room held only %d expansions", expansions)
	}
}
