package repro

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/randtree"
	"repro/internal/schedd"
)

// TestConcurrentLeaseBudgetAccounting is the multi-tenancy property the
// schedd broker exists for: many engines share one process, each running
// under a profile-cache budget equal to its lease of the global budget,
// concurrently and under -race. It asserts, per engine, the bounded-cache
// residency envelope (lease + rope floor); globally, that results are
// bit-identical to unbounded baselines, that the broker accounting
// returns to zero with the expected peak, and — race detector aside —
// that the process RSS growth stays inside the leased total plus scratch,
// i.e. the leases really do partition resident memory rather than merely
// label it.
func TestConcurrentLeaseBudgetAccounting(t *testing.T) {
	engines := 6
	nodes := 30000
	if testing.Short() {
		engines = 3
		nodes = 8000
	}

	// One I/O-bound instance per engine, distinct shapes.
	rng := rand.New(rand.NewSource(271))
	instances := make([]*core.Instance, 0, engines)
	for len(instances) < engines {
		tr := randtree.Synth(nodes, rng)
		in := core.NewInstance("tenant", tr)
		if in.NeedsIO() {
			instances = append(instances, in)
		}
	}

	// Unbounded baselines (sequential): the correctness reference and the
	// footprint the budgets are calibrated from.
	baselines := make([]*core.Result, engines)
	var full int64
	for i, in := range instances {
		rn := core.NewRunner(1)
		res, err := rn.Run(core.RecExpand, in.Tree, in.M(core.BoundMid))
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		baselines[i] = res
		if pk := rn.CacheStats().PeakResidentBytes; pk > full {
			full = pk
		}
	}
	if full == 0 {
		t.Fatal("unbounded baselines reported no cache footprint")
	}

	// A lease per engine at a quarter of the worst unbounded footprint:
	// small enough to force eviction, large enough to stay exact.
	leaseCost := full/4 + 1
	broker, err := schedd.NewBroker(int64(engines) * leaseCost)
	if err != nil {
		t.Fatal(err)
	}

	rssBefore := peakRSSBytes()
	type tenant struct {
		res  *core.Result
		peak int64
		err  error
	}
	got := make([]tenant, engines)
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lease, err := broker.TryAcquire(leaseCost)
			if err != nil {
				got[i].err = err
				return
			}
			defer lease.Release()
			rn := core.NewRunner(1)
			rn.CacheBudget = lease.Cost()
			res, err := rn.Run(core.RecExpand, instances[i].Tree, instances[i].M(core.BoundMid))
			got[i] = tenant{res: res, peak: rn.CacheStats().PeakResidentBytes, err: err}
		}(i)
	}
	wg.Wait()

	// Rope floor allowance, as in the expand budget tests: pinned rope
	// structure that a budget cannot evict, at most 2.5 × 12 bytes (one
	// rope slot) per node.
	ropeFloor := int64(nodes) * 12 * 5 / 2
	for i, g := range got {
		if g.err != nil {
			t.Fatalf("tenant %d: %v", i, g.err)
		}
		if !reflect.DeepEqual(g.res, baselines[i]) {
			t.Fatalf("tenant %d: budgeted concurrent run changed the Result", i)
		}
		if limit := leaseCost + ropeFloor; g.peak > limit {
			t.Fatalf("tenant %d overshot its lease: peak %d > lease %d + rope floor %d",
				i, g.peak, leaseCost, ropeFloor)
		}
	}

	st := broker.Stats()
	if st.Used != 0 || st.Leases != 0 {
		t.Fatalf("tenant round leaked leases: %+v", st)
	}
	if st.PeakUsed != int64(engines)*leaseCost {
		t.Fatalf("broker peak %d, want all %d leases live at once (%d)",
			st.PeakUsed, engines, int64(engines)*leaseCost)
	}

	// The RSS envelope: growth across the concurrent phase must fit the
	// leased cache total plus per-engine scratch (tree copies, postorder
	// and schedule buffers) and allocator slack. Skipped under the race
	// detector, whose shadow memory dwarfs any budget.
	if raceEnabled {
		t.Log("race detector active: skipping the RSS envelope")
		return
	}
	rssAfter := peakRSSBytes()
	if rssAfter == 0 {
		t.Log("no RSS reading on this platform: skipping the RSS envelope")
		return
	}
	scratch := int64(engines) * int64(nodes) * 512 // ~0.5 KiB/node working state per engine
	envelope := int64(engines)*leaseCost + ropeFloor*int64(engines) + scratch + 64<<20
	if grew := rssAfter - rssBefore; grew > envelope {
		t.Fatalf("concurrent tenants grew RSS by %d bytes, envelope %d (leases %d)",
			grew, envelope, int64(engines)*leaseCost)
	}
	t.Logf("full=%d lease=%d rss_growth=%d envelope=%d", full, leaseCost, rssAfter-rssBefore, envelope)
}
