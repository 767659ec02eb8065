package expand

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/liu"
	"repro/internal/randtree"
	"repro/internal/tree"
)

// budgetCorpus yields the same flavor of I/O-bound instances as the main
// differential corpus: a mix of SYNTH and uniformly random trees with a
// random bound strictly between LB and the optimal peak.
func budgetCorpus(t *testing.T, seed int64, want int, visit func(tr *tree.Tree, M int64, trial int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tried := 0
	for trial := 0; tried < want; trial++ {
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
		tried++
		visit(tr, lb+rng.Int63n(peak-lb), trial)
	}
}

// TestRecExpandBudgetedMatchesReference is the acceptance grid of the
// bounded-memory cache: on a 220-instance corpus, RecExpand must be
// bit-identical to the frozen reference engine for every budget tier
// (tiny = constant thrash, a middling default, unlimited) crossed with
// every worker count {1, 2, 8}. Eviction, rematerialization and the
// sharded warm are all pure residency mechanics; any divergence here is a
// correctness bug, not a tuning matter.
func TestRecExpandBudgetedMatchesReference(t *testing.T) {
	budgets := []int64{1, 16 << 10, 0}
	workers := []int{1, 2, 8}
	budgetCorpus(t, 2026, 220, func(tr *tree.Tree, M int64, trial int) {
		opts := Options{MaxPerNode: 2}
		want, err := ReferenceRecExpand(tr, M, opts)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		for _, b := range budgets {
			for _, w := range workers {
				got, err := RecExpand(tr, M, Options{MaxPerNode: 2, Workers: w, CacheBudget: b})
				if err != nil {
					t.Fatalf("trial %d budget=%d workers=%d: %v", trial, b, w, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d budget=%d workers=%d: diverges from reference (M=%d n=%d)\ngot:  %+v\nwant: %+v",
						trial, b, w, M, tr.N(), got, want)
				}
			}
		}
	})
}

// TestRecExpandCapHitUnderTinyBudget crosses the global expansion cap with
// a thrashing cache budget: CapHit must trip at exactly the same expansion
// as the reference engine, for sequential and sharded warms alike, even
// while the cache is evicting and rematerializing around the cap checks.
func TestRecExpandCapHitUnderTinyBudget(t *testing.T) {
	budgetCorpus(t, 2027, 120, func(tr *tree.Tree, M int64, trial int) {
		// Find the unconstrained expansion count, then sweep caps around
		// it so some runs trip CapHit mid-walk and some just barely pass.
		free, err := ReferenceRecExpand(tr, M, Options{MaxPerNode: 2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		caps := []int{1, free.Expansions/2 + 1, free.Expansions + 1}
		for _, cap := range caps {
			opts := Options{MaxPerNode: 2, GlobalCap: cap}
			want, err := ReferenceRecExpand(tr, M, opts)
			if err != nil {
				t.Fatalf("trial %d cap=%d: reference: %v", trial, cap, err)
			}
			for _, w := range []int{1, 4} {
				got, err := RecExpand(tr, M, Options{MaxPerNode: 2, GlobalCap: cap, Workers: w, CacheBudget: 1})
				if err != nil {
					t.Fatalf("trial %d cap=%d workers=%d: %v", trial, cap, w, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d cap=%d workers=%d: diverges (CapHit got %v want %v, expansions got %d want %d)",
						trial, cap, w, got.CapHit, want.CapHit, got.Expansions, want.Expansions)
				}
			}
		}
	})
}

// TestRecExpandBudgetStats sanity-checks the plumbing that budget
// calibration relies on: an unbounded run reports a high-water footprint
// and no evictions; a run bounded to a tenth of that footprint reports
// slice or subtree evictions and stays (well) under the unbounded
// high-water, with an identical Result.
func TestRecExpandBudgetStats(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	tr := randtree.Synth(20000, rng)
	lb := tr.MaxWBar()
	_, peak := liu.MinMem(tr)
	if peak <= lb {
		t.Skip("instance not I/O-bound")
	}
	M := (lb + peak) / 2
	eng := NewEngine()
	want, err := eng.RecExpand(tr, M, Options{MaxPerNode: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := eng.CacheStats()
	if full.PeakResidentBytes == 0 {
		t.Fatal("unbounded run reported no resident footprint")
	}
	if full.Evictions != 0 || full.SlicedProfiles != 0 {
		t.Fatalf("unbounded run evicted: %+v", full)
	}
	budget := full.PeakResidentBytes / 10
	got, err := eng.RecExpand(tr, M, Options{MaxPerNode: 2, Workers: 1, CacheBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	bounded := eng.CacheStats()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("budgeted run changed the Result")
	}
	if bounded.SlicedProfiles == 0 && bounded.Evictions == 0 {
		t.Fatalf("budget %d triggered no eviction (footprint %d)", budget, full.PeakResidentBytes)
	}
	if bounded.PeakResidentBytes >= full.PeakResidentBytes {
		t.Fatalf("budgeted high-water %d did not improve on unbounded %d",
			bounded.PeakResidentBytes, full.PeakResidentBytes)
	}
}

// deepChainForest builds k deep-chain branches — a unit-weight spine of
// `spine` nodes over one shared I/O-bound SYNTH bottom of `bushy` nodes —
// directly under a weight-1 root. Every spine prefix inherits the bottom's
// peak, so the whole forest overflows the mid bound at once, and the
// sharded warm splits it into k independent branches.
func deepChainForest(k, spine, bushy int, seed int64) *tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	sub := randtree.Synth(bushy, rng)
	parent := []int{tree.None}
	weight := []int64{1}
	for i := 0; i < k; i++ {
		prev := 0
		for j := 0; j < spine; j++ {
			id := len(parent)
			parent = append(parent, prev)
			weight = append(weight, 1)
			prev = id
		}
		off := len(parent)
		for v := 0; v < sub.N(); v++ {
			if p := sub.Parent(v); p == tree.None {
				parent = append(parent, prev)
			} else {
				parent = append(parent, p+off)
			}
			weight = append(weight, sub.Weight(v))
		}
	}
	return tree.MustNew(parent, weight)
}

// TestParallelWarmBudgetNoOvershoot pins the end-to-end residency
// envelope of a sharded-warm run under budget: on a forest whose every
// branch overflows, the cache's high-water must stay within the budget
// plus the warm-phase rope floor (ropes are unevictable while a monotone
// bottom-up warm is still referencing them upward), even though each
// warmer evicts only within its own shard. Result bit-identity with the
// sequential warm is checked too.
func TestParallelWarmBudgetNoOvershoot(t *testing.T) {
	tr := deepChainForest(8, 300, 500, 97)
	lb := tr.MaxWBar()
	_, peak := liu.MinMem(tr)
	if peak <= lb {
		t.Fatal("deep-chain forest not I/O-bound")
	}
	M := (lb + peak) / 2
	eng := NewEngine()
	want, err := eng.RecExpand(tr, M, Options{MaxPerNode: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := eng.CacheStats().PeakResidentBytes
	if full == 0 {
		t.Fatal("unbounded run reported no footprint")
	}
	budget := full / 5
	got, err := eng.RecExpand(tr, M, Options{MaxPerNode: 2, Workers: 4, CacheBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	bounded := eng.CacheStats()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("budgeted sharded run changed the Result")
	}
	// Rope floor allowance: at most one 12-byte rope slot per concatenation
	// (leaf ids live in their handles), so 2.5 slots per tree node is
	// generous; a return to per-node rope objects would blow through it.
	ropeFloor := int64(tr.N()) * 12 * 5 / 2
	if limit := budget + ropeFloor; bounded.PeakResidentBytes > limit {
		t.Fatalf("sharded-warm run overshot: budget %d + rope floor %d < high-water %d (unbounded %d)",
			budget, ropeFloor, bounded.PeakResidentBytes, full)
	}
	t.Logf("unbounded=%d budget=%d high-water=%d", full, budget, bounded.PeakResidentBytes)
}
