package repro

// The out-of-core-scale acceptance check of the bounded-memory profile
// cache. It is gated behind an environment variable because a 10⁷-node run
// takes minutes and gigabytes: the tier-1 suite must stay fast, and the
// claim it verifies ("RECEXPAND on a 10⁷-node tree completes under a
// budget of ~1/10 of the unbounded cache footprint, bit-identically") is
// recorded in DESIGN.md §3 from the cmd/minio-bench -fig huge runs.
//
// Run it with:
//
//	REPRO_HUGE=1000000  go test -run TestHugeTreeBudgeted -v .   # ~10 s
//	REPRO_HUGE=10000000 go test -run TestHugeTreeBudgeted -v .   # minutes
//
// TestHugeTreeStreamed runs the same staircase forest under a FIXED byte
// budget (REPRO_HUGE_BUDGET, default 1GiB) with the schedule consumed as a
// stream (expand.RecExpandStream), so the n-word schedule slice never
// exists. It runs the streamed engine first and the materializing
// RecExpand second in the same process, and requires the materialized run
// to push the process's resident high-water (getrusage) strictly above the
// streamed one: both run the same finish, and the materialized run holds
// the collected n-id slice on top of it. A 10⁸-node run
// (REPRO_HUGE=100000000) needs ~40 GiB of RAM and half an hour or more on
// one core; set REPRO_HUGE_COMPARE=0 to skip the second (materializing)
// run and only demonstrate the streamed completion.
import (
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/expand"
	"repro/internal/experiments"
)

func TestHugeTreeBudgeted(t *testing.T) {
	env := os.Getenv("REPRO_HUGE")
	if env == "" {
		t.Skip("set REPRO_HUGE=<nodes> (e.g. 1000000 or 10000000) to run the out-of-core-scale check")
	}
	n, err := strconv.Atoi(env)
	if err != nil || n < 1000 {
		t.Fatalf("REPRO_HUGE=%q: want a node count >= 1000", env)
	}
	in := experiments.Huge(n, 1)
	M := in.M(core.BoundMid)
	eng := expand.NewEngine()

	want, err := eng.RecExpand(in.Tree, M, expand.Options{MaxPerNode: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := eng.CacheStats().PeakResidentBytes
	if full == 0 {
		t.Fatal("unbounded run reported no footprint")
	}
	budget := full / 10
	got, err := eng.RecExpand(in.Tree, M, expand.Options{MaxPerNode: 2, Workers: 1, CacheBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	bounded := eng.CacheStats()
	if got.IO != want.IO || got.Expansions != want.Expansions || got.SimulatedIO != want.SimulatedIO {
		t.Fatalf("budgeted run changed the result: io %d vs %d, expansions %d vs %d",
			got.IO, want.IO, got.Expansions, want.Expansions)
	}
	// The budget is a soft target (the flatten working set is pinned), but
	// on the staircase forest the slice tier reclaims the dominant part:
	// the high-water mark must drop to a small multiple of the budget.
	if bounded.PeakResidentBytes > 2*budget {
		t.Fatalf("budget %d MiB: high-water %d MiB, unbounded %d MiB",
			budget>>20, bounded.PeakResidentBytes>>20, full>>20)
	}
	t.Logf("n=%d unbounded=%dMiB budget=%dMiB high-water=%dMiB slices=%d evictions=%d remats=%d",
		in.Tree.N(), full>>20, budget>>20, bounded.PeakResidentBytes>>20,
		bounded.SlicedProfiles, bounded.Evictions, bounded.Rematerializations)
}

func TestHugeTreeStreamed(t *testing.T) {
	env := os.Getenv("REPRO_HUGE")
	if env == "" {
		t.Skip("set REPRO_HUGE=<nodes> (e.g. 1000000, 10000000 or 100000000) to run the streamed out-of-core check")
	}
	n, err := strconv.Atoi(env)
	if err != nil || n < 1000 {
		t.Fatalf("REPRO_HUGE=%q: want a node count >= 1000", env)
	}
	budget := int64(1 << 30)
	if b := os.Getenv("REPRO_HUGE_BUDGET"); b != "" {
		budget, err = core.ParseByteSize(b)
		if err != nil || budget <= 0 {
			t.Fatalf("REPRO_HUGE_BUDGET=%q: %v", b, err)
		}
	}
	in := experiments.Huge(n, 1)
	M := in.M(core.BoundMid)
	eng := expand.NewEngine()
	opts := expand.Options{MaxPerNode: 2, Workers: 1, CacheBudget: budget}

	// Streamed run first: process RSS is a monotone high-water, so the
	// streamed engine must set its mark before the materializing
	// comparison run gets a chance to raise it. baseRSS guards the other
	// direction — an earlier test in the same process (TestHugeTreeBudgeted
	// under the same REPRO_HUGE) may already have pushed the high-water
	// past anything this run reaches, voiding the comparison.
	baseRSS := peakRSSBytes()
	var steps int64
	res, err := eng.RecExpandStream(in.Tree, M, opts, func(seg []int) bool {
		steps += int64(len(seg))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	streamed := eng.CacheStats()
	rssStream := peakRSSBytes()
	if steps != int64(in.Tree.N()) {
		t.Fatalf("streamed %d schedule steps for %d nodes", steps, in.Tree.N())
	}
	t.Logf("streamed: n=%d budget=%dMiB cache-high-water=%dMiB remats=%d rss=%dMiB io=%d expansions=%d",
		in.Tree.N(), budget>>20, streamed.PeakResidentBytes>>20,
		streamed.Rematerializations, rssStream>>20, res.IO, res.Expansions)

	if os.Getenv("REPRO_HUGE_COMPARE") == "0" {
		return
	}
	// The materializing path at the same scale and budget: the same
	// finish plus the collected n-id schedule. Identical Result required;
	// strictly higher process high-water required.
	matRes, err := eng.RecExpand(in.Tree, M, opts)
	if err != nil {
		t.Fatal(err)
	}
	rssMat := peakRSSBytes()
	if matRes.IO != res.IO || matRes.Expansions != res.Expansions || matRes.SimulatedIO != res.SimulatedIO {
		t.Fatalf("materialized run changed the result: io %d vs %d", matRes.IO, res.IO)
	}
	if int64(len(matRes.Schedule)) != steps {
		t.Fatalf("materialized schedule has %d steps, streamed %d", len(matRes.Schedule), steps)
	}
	if rssStream == 0 {
		t.Log("peak RSS unavailable on this platform; skipping the high-water comparison")
		return
	}
	if rssStream <= baseRSS {
		t.Logf("process high-water %dMiB predates the streamed run (earlier tests in this process); skipping the comparison — run with -run TestHugeTreeStreamed for the measured claim", baseRSS>>20)
		return
	}
	if rssMat <= rssStream {
		t.Fatalf("materialized path did not exceed the streamed high-water: %dMiB <= %dMiB",
			rssMat>>20, rssStream>>20)
	}
	t.Logf("materialized: rss=%dMiB (+%dMiB over streamed)", rssMat>>20, (rssMat-rssStream)>>20)
}
