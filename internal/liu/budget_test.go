package liu

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tree"
)

// budgetedEquals checks that a budgeted cache answers every query exactly
// like an unbounded one over the same tree: peaks at every node and the
// schedule at the root.
func budgetedEquals(t *testing.T, tr *tree.Tree, opts CacheOptions, label string) {
	t.Helper()
	ref := NewProfileCache(tr)
	c := NewProfileCacheOpts(tr, opts)
	for v := 0; v < tr.N(); v++ {
		if got, want := c.Peak(v), ref.Peak(v); got != want {
			t.Fatalf("%s: node %d peak %d, unbounded %d", label, v, got, want)
		}
	}
	got := c.AppendSchedule(tr.Root(), nil)
	want := ref.AppendSchedule(tr.Root(), nil)
	if len(got) != len(want) {
		t.Fatalf("%s: schedule lengths %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: schedules differ at %d", label, i)
		}
	}
}

// TestBudgetedCacheMatchesUnbounded sweeps tiny-to-generous budgets over
// random trees: residency policy must never change a query answer.
func TestBudgetedCacheMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	budgets := []CacheOptions{
		{MaxResidentBytes: 1},       // constant thrash
		{MaxResidentBytes: 1 << 12}, // tight
		{MaxResidentBytes: 1 << 24}, // loose
	}
	for trial := 0; trial < 40; trial++ {
		tr := cacheRandomTree(2+rng.Intn(300), rng)
		for _, opts := range budgets {
			budgetedEquals(t, tr, opts, "static tree")
		}
	}
}

// TestBudgetedIncrementalMatchesFresh is the budgeted mirror of
// TestProfileCacheIncrementalMatchesFresh: random splices with path
// invalidation under a thrashing budget must still reproduce a fresh
// MinMem of the frozen tree.
func TestBudgetedIncrementalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 80; trial++ {
		tr := cacheRandomTree(2+rng.Intn(60), rng)
		m := newWeightedMutable(tr)
		opts := CacheOptions{MaxResidentBytes: []int64{1, 512, 1 << 16}[trial%3]}
		c := NewProfileCacheOpts(m, opts)
		c.Peak(m.root)
		k := 1 + rng.Intn(8)
		for e := 0; e < k; e++ {
			v := rng.Intn(m.N())
			w := m.weight[v]
			if w <= 0 {
				continue
			}
			top := m.splice(v, 1+rng.Int63n(w))
			c.Grow()
			c.Invalidate(top)
			if rng.Intn(2) == 0 {
				c.Peak(m.root)
			}
		}
		frozen, toNew := m.freeze()
		wantSched, wantPeak := MinMem(frozen)
		if got := c.Peak(m.root); got != wantPeak {
			t.Fatalf("trial %d: budgeted incremental peak %d, fresh MinMem %d", trial, got, wantPeak)
		}
		got := c.AppendSchedule(m.root, nil)
		if len(got) != len(wantSched) {
			t.Fatalf("trial %d: schedule lengths %d vs %d", trial, len(got), len(wantSched))
		}
		for i := range got {
			if toNew[got[i]] != wantSched[i] {
				t.Fatalf("trial %d: schedules differ at step %d", trial, i)
			}
		}
	}
}

// TestEvictThenInvalidate pins the evict-then-invalidate corner: after a
// subtree is evicted (clean, memory reclaimed), invalidating a node inside
// it must walk through the evicted (profile-free) region without touching
// freed memory, and the next query must rebuild everything correctly.
func TestEvictThenInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		tr := cacheRandomTree(10+rng.Intn(200), rng)
		m := newWeightedMutable(tr)
		// A 1-byte budget evicts every subtree hanging off every
		// invalidated path, so each splice-and-query cycle runs the
		// evict-then-invalidate sequence at many nodes.
		c := NewProfileCacheOpts(m, CacheOptions{MaxResidentBytes: 1})
		c.Peak(m.root)
		for e := 0; e < 6; e++ {
			v := rng.Intn(m.N())
			if m.weight[v] <= 0 {
				continue
			}
			top := m.splice(v, 1+rng.Int63n(m.weight[v]))
			c.Grow()
			c.Invalidate(top)
			// Invalidate deeper nodes of regions that were just evicted:
			// leaves are always inside some evicted hanging subtree here.
			leaf := rng.Intn(m.N())
			c.Invalidate(leaf)
		}
		frozen, toNew := m.freeze()
		wantSched, wantPeak := MinMem(frozen)
		if got := c.Peak(m.root); got != wantPeak {
			t.Fatalf("trial %d: peak %d after evict+invalidate cycles, want %d", trial, got, wantPeak)
		}
		got := c.AppendSchedule(m.root, nil)
		for i := range got {
			if toNew[got[i]] != wantSched[i] {
				t.Fatalf("trial %d: schedule differs at %d", trial, i)
			}
		}
	}
}

// TestEvictionMidParallelWarm drives the sharded warm under budgets small
// enough that workers evict inside their shards while other workers are
// still warming: the final state must match a sequential unbounded warm at
// every node, for every worker count.
func TestEvictionMidParallelWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		tr := cacheRandomTree(200+rng.Intn(2000), rng)
		ref := NewProfileCache(tr)
		ref.Peak(tr.Root())
		for _, workers := range []int{2, 4, 8} {
			for _, budget := range []int64{1, 1 << 14} {
				c := NewProfileCacheOpts(tr, CacheOptions{MaxResidentBytes: budget})
				c.EnsureParallel(tr.Root(), workers)
				for v := 0; v < tr.N(); v++ {
					if !c.valid[v] {
						t.Fatalf("trial %d w=%d budget=%d: node %d left dirty", trial, workers, budget, v)
					}
					if c.peak[v] != ref.peak[v] {
						t.Fatalf("trial %d w=%d budget=%d: node %d peak %d, want %d",
							trial, workers, budget, v, c.peak[v], ref.peak[v])
					}
				}
				got := c.AppendSchedule(tr.Root(), nil)
				want := ref.AppendSchedule(tr.Root(), nil)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d w=%d budget=%d: schedules differ at %d", trial, workers, budget, i)
					}
				}
			}
		}
	}
}

// TestBudgetBoundsResidentBytes checks the budget does its actual job on a
// profile-heavy tree: the high-water resident footprint under a budget
// must stay well below the unbounded footprint (the pinned working set and
// the schedule ropes form the floor), and eviction counters must move.
func TestBudgetBoundsResidentBytes(t *testing.T) {
	// A hill–valley staircase: spine outputs grow upward, leaf peaks
	// shrink downward, so every spine level keeps one more segment and
	// profile slices dominate the footprint (the experiments.Huge shape).
	const L = 400
	parent := make([]int, 0, 2*L)
	weight := make([]int64, 0, 2*L)
	prev := tree.None
	for j := L; j >= 1; j-- {
		id := len(parent)
		parent = append(parent, prev)
		weight = append(weight, int64(j)*2)
		parent = append(parent, id)
		weight = append(weight, int64(5000-j*10))
		prev = id
	}
	tr := tree.MustNew(parent, weight)

	unbounded := NewProfileCache(tr)
	unbounded.Peak(tr.Root())
	full := unbounded.Stats().PeakResidentBytes

	budget := full / 10
	c := NewProfileCacheOpts(tr, CacheOptions{MaxResidentBytes: budget})
	c.Peak(tr.Root())
	st := c.Stats()
	if st.SlicedProfiles == 0 {
		t.Fatalf("budget %d evicted no slices (unbounded footprint %d)", budget, full)
	}
	// The warm's floor is the rope pages plus the merge frontier; on this
	// shape that is far below the unbounded segment footprint.
	if st.PeakResidentBytes > full/2 {
		t.Fatalf("budgeted high-water %d, want well under unbounded %d", st.PeakResidentBytes, full)
	}
	if got, want := c.Peak(tr.Root()), unbounded.Peak(tr.Root()); got != want {
		t.Fatalf("budgeted peak %d, unbounded %d", got, want)
	}
}

// TestAppendScheduleInteriorSliceless pins the regression where flattening
// an interior clean-but-sliceless node rebuilt its profile while resident
// ancestors still referenced the old rope pages: recompute must not pool
// (and thereby recycle) pages a resident ancestor can still reach, or the
// next root flatten silently returns a truncated traversal.
func TestAppendScheduleInteriorSliceless(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 60; trial++ {
		tr := cacheRandomTree(10+rng.Intn(120), rng)
		c := NewProfileCacheOpts(tr, CacheOptions{MaxResidentBytes: 1})
		want := NewProfileCache(tr).AppendSchedule(tr.Root(), nil)
		c.Peak(tr.Root())
		c.AppendSchedule(tr.Root(), nil) // leaves interiors sliceless
		// Flatten every node directly — interior sliceless nodes rebuild
		// under resident ancestors here — then re-query the root.
		for v := 0; v < tr.N(); v++ {
			c.AppendSchedule(v, nil)
		}
		got := c.AppendSchedule(tr.Root(), nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: root schedule length %d after interior flattens, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: root schedule differs at %d after interior flattens", trial, i)
			}
		}
	}
}

// staircaseForest hangs k hill–valley staircases of l spine levels (the
// TestBudgetBoundsResidentBytes shape, each level keeping one more
// profile segment) under a common root.
func staircaseForest(k, l int) *tree.Tree {
	parent := []int{tree.None}
	weight := []int64{1}
	for b := 0; b < k; b++ {
		prev := 0
		for j := l; j >= 1; j-- {
			id := len(parent)
			parent = append(parent, prev, id)
			weight = append(weight, int64(j)*2, int64(5000-j*10))
			prev = id
		}
	}
	return tree.MustNew(parent, weight)
}

// TestParallelWarmAccounting checks the sharded warm's batched
// resident-byte accounting at 2, 4 and 8 workers, unbounded and under a
// tight byte budget. After the join the byte audit must pass, so
// ResidentBytes equals the per-node recount, and the reported high-water
// must lie between ResidentBytes and what the policy allows: the exact
// footprint when unbounded (a warm only adds bytes), and the budget plus
// the workers' credit slack plus the rope floor under a budget. Run it
// with -race -count=10.
func TestParallelWarmAccounting(t *testing.T) {
	tr := staircaseForest(12, 150)
	ref := NewProfileCache(tr)
	ref.Peak(tr.Root())
	full := ref.Stats().PeakResidentBytes
	budget := full / 10
	// The budget cannot evict rope slots a resident ancestor still
	// references: 2.5 slots per node, as in the expand budget tests.
	ropeFloor := int64(tr.N()) * ropeBytes * 5 / 2
	for _, workers := range []int{2, 4, 8} {
		for _, opts := range []CacheOptions{{}, {MaxResidentBytes: budget}} {
			label := fmt.Sprintf("workers=%d opts=%+v", workers, opts)
			c := NewProfileCacheOpts(tr, opts)
			c.EnsureParallel(tr.Root(), workers)
			// The byte audit compares ResidentBytes with the per-node
			// recount.
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			st := c.Stats()
			if st.PeakResidentBytes < st.ResidentBytes {
				t.Fatalf("%s: PeakResidentBytes %d below ResidentBytes %d", label, st.PeakResidentBytes, st.ResidentBytes)
			}
			slack := 2 * int64(workers) * c.warmBatch(workers)
			limit := full
			if opts.MaxResidentBytes > 0 {
				limit = budget + slack + ropeFloor
			}
			if st.PeakResidentBytes > limit {
				t.Fatalf("%s: PeakResidentBytes %d above %d (unbounded %d, slack %d)",
					label, st.PeakResidentBytes, limit, full, slack)
			}
			if got := c.Peak(tr.Root()); got != ref.Peak(tr.Root()) {
				t.Fatalf("%s: root peak %d, want %d", label, got, ref.Peak(tr.Root()))
			}
		}
	}
}
