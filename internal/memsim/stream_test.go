package memsim

import (
	"math/rand"
	"testing"

	"repro/internal/liu"
	"repro/internal/randtree"
	"repro/internal/tree"
)

// chunkedSource streams sched in chunks of at most k ids.
func chunkedSource(sched []int, k int) ScheduleSource {
	return func(yield func(seg []int) bool) bool {
		for i := 0; i < len(sched); i += k {
			end := i + k
			if end > len(sched) {
				end = len(sched)
			}
			if !yield(sched[i:end]) {
				return false
			}
		}
		return true
	}
}

// passes drives one run through the pass methods: first's segments to
// Index, second's to Step, then End. A pass that fails returns its error;
// a source that stops early leaves End to report the shortfall.
func passes(sim *Simulator, ts TreeView, root int, M int64, policy EvictionPolicy, first, second ScheduleSource) (io, peak int64, err error) {
	sim.Begin(ts, root, M, policy)
	var perr error
	first(func(seg []int) bool { perr = sim.Index(seg); return perr == nil })
	if perr == nil {
		second(func(seg []int) bool { perr = sim.Step(seg); return perr == nil })
	}
	io, peak, err = sim.End()
	if perr != nil {
		return 0, 0, perr
	}
	return io, peak, err
}

// TestRunStreamMatchesRun pins the streaming simulator against the
// materialized path: identical I/O and peak for every policy across random
// instances, chunk sizes and memory bounds, on a reused (warm) simulator.
func TestRunStreamMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sim := NewSimulator()
	for trial := 0; trial < 60; trial++ {
		tr := randtree.Synth(20+rng.Intn(400), rng)
		sched, peak := liu.MinMem(tr)
		lb := tr.MaxWBar()
		M := lb
		if peak > lb {
			M = lb + rng.Int63n(peak-lb+1)
		}
		for _, policy := range []EvictionPolicy{FiF, NiF, LargestFirst} {
			want, err := Run(tr, M, sched, policy)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for _, k := range []int{1, 7, 64, len(sched)} {
				io, pk, err := sim.RunStream(tr, tr.Root(), M, chunkedSource(sched, k), policy)
				if err != nil {
					t.Fatalf("trial %d chunk=%d: %v", trial, k, err)
				}
				if io != want.IO || pk != want.Peak {
					t.Fatalf("trial %d chunk=%d policy=%v: stream io=%d peak=%d, run io=%d peak=%d",
						trial, k, policy, io, pk, want.IO, want.Peak)
				}
				io, pk, err = passes(sim, tr, tr.Root(), M, policy, chunkedSource(sched, k), chunkedSource(sched, k))
				if err != nil {
					t.Fatalf("trial %d chunk=%d: pass methods: %v", trial, k, err)
				}
				if io != want.IO || pk != want.Peak {
					t.Fatalf("trial %d chunk=%d policy=%v: pass methods io=%d peak=%d, run io=%d peak=%d",
						trial, k, policy, io, pk, want.IO, want.Peak)
				}
			}
		}
	}
}

// TestRunStreamRejectsBadStreams covers the failure modes: a source that
// stops early, a non-topological stream, and a second pass that diverges
// from the first.
func TestRunStreamRejectsBadStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	tr := randtree.Synth(200, rng)
	sched, peak := liu.MinMem(tr)
	sim := NewSimulator()

	stopped := func(yield func(seg []int) bool) bool {
		yield(sched[:10])
		return false
	}
	if _, _, err := sim.RunStream(tr, tr.Root(), peak, stopped, FiF); err != ErrStreamStopped {
		t.Fatalf("early-stopping source: got %v, want ErrStreamStopped", err)
	}

	reversed := make([]int, len(sched))
	for i, v := range sched {
		reversed[len(sched)-1-i] = v
	}
	if _, _, err := sim.RunStream(tr, tr.Root(), peak, chunkedSource(reversed, 16), FiF); err == nil {
		t.Fatal("reversed schedule accepted")
	}

	pass := 0
	diverging := func(yield func(seg []int) bool) bool {
		pass++
		if pass == 1 {
			return chunkedSource(sched, 16)(yield)
		}
		return chunkedSource(reversed, 16)(yield)
	}
	if _, _, err := sim.RunStream(tr, tr.Root(), peak, diverging, FiF); err == nil {
		t.Fatal("diverging second pass accepted")
	}

	// The same failures through the pass methods: after a stopped first
	// pass Step meets nodes that were never indexed, a stopped second pass
	// leaves End to report the shortfall, and a reversed or diverging
	// second pass fails in Step.
	full := chunkedSource(sched, 16)
	for name, c := range map[string][2]ScheduleSource{
		"stopped first pass":  {stopped, full},
		"stopped second pass": {full, stopped},
		"reversed":            {chunkedSource(reversed, 16), chunkedSource(reversed, 16)},
		"diverging":           {full, chunkedSource(reversed, 16)},
	} {
		if _, _, err := passes(sim, tr, tr.Root(), peak, FiF, c[0], c[1]); err == nil {
			t.Fatalf("pass methods: %s accepted", name)
		}
	}

	// The simulator must stay usable after every failure.
	want, err := Run(tr, peak, sched, FiF)
	if err != nil {
		t.Fatal(err)
	}
	io, pk, err := sim.RunStream(tr, tr.Root(), peak, chunkedSource(sched, 16), FiF)
	if err != nil {
		t.Fatal(err)
	}
	if io != want.IO || pk != want.Peak {
		t.Fatalf("post-failure stream io=%d peak=%d, want io=%d peak=%d", io, pk, want.IO, want.Peak)
	}
	if io, pk, err = passes(sim, tr, tr.Root(), peak, FiF, full, full); err != nil || io != want.IO || pk != want.Peak {
		t.Fatalf("post-failure pass methods io=%d peak=%d err=%v, want io=%d peak=%d", io, pk, err, want.IO, want.Peak)
	}
}

// rankedTree is a TreeView with child ranks, as the expansion engine's
// mutable tree is.
type rankedTree struct {
	*tree.Tree
	ranks []int32
}

func (r rankedTree) ChildRanks() []int32 { return r.ranks }

// TestSimulatorDropsView pins that a run lets go of its tree: after End,
// and after an Index or Step error, the simulator holds neither the
// TreeView nor the child ranks it borrowed from it, so a reused simulator
// does not keep the last (possibly huge) tree alive. Pass methods called
// after the run ended fail instead of touching the dropped tree.
func TestSimulatorDropsView(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	tr := randtree.Synth(300, rng)
	sched, peak := liu.MinMem(tr)
	ranks := make([]int32, tr.N())
	for v := 0; v < tr.N(); v++ {
		for k, c := range tr.Children(v) {
			ranks[c] = int32(k)
		}
	}
	rt := rankedTree{tr, ranks}
	reversed := make([]int, len(sched))
	for i, v := range sched {
		reversed[len(sched)-1-i] = v
	}
	dup := append([]int{sched[0]}, sched...)
	sim := NewSimulator()
	held := func(label string) {
		t.Helper()
		if sim.ts != nil || sim.h.rank != nil {
			t.Fatalf("%s: simulator still holds the view (%v) or its ranks (%d)", label, sim.ts != nil, len(sim.h.rank))
		}
		if err := sim.Index(sched); err == nil {
			t.Fatalf("%s: Index accepted a segment outside a run", label)
		}
		if err := sim.Step(sched); err == nil {
			t.Fatalf("%s: Step accepted a segment outside a run", label)
		}
	}
	sim.Begin(rt, tr.Root(), peak, FiF)
	if sim.h.rank == nil {
		t.Fatal("Begin did not take the view's child ranks")
	}
	if err := sim.Index(sched); err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(sched); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.End(); err != nil {
		t.Fatal(err)
	}
	held("after End")

	sim.Begin(rt, tr.Root(), peak, FiF)
	if err := sim.Index(dup); err == nil {
		t.Fatal("Index accepted a node scheduled twice")
	}
	held("after an Index error")

	sim.Begin(rt, tr.Root(), peak, FiF)
	if err := sim.Index(sched); err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(reversed); err == nil {
		t.Fatal("Step accepted a diverging pass")
	}
	held("after a Step error")

	sim.Begin(rt, tr.Root(), peak, FiF)
	if err := sim.Index(sched[:10]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sim.End(); err == nil {
		t.Fatal("End accepted a run with no stepping pass")
	}
	held("after an early End")

	if _, _, err := sim.Run(rt, tr.Root(), peak, sched, FiF); err != nil {
		t.Fatal(err)
	}
	held("after Run")
}
