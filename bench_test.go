package repro

// One benchmark per table/figure of the paper plus the ablation studies
// called out in DESIGN.md. The profile benchmarks run the reduced-scale
// datasets (use cmd/minio-bench -scale paper for paper-scale numbers) and
// report, beyond ns/op, the headline quantities of each figure as custom
// metrics so that `go test -bench` output doubles as the reproduction
// record:
//
//   frac_within_5pct_<alg>   fraction of instances within 5% of the best
//   mean_overhead_<alg>      mean overhead over the best method, percent
//   io_...                   raw I/O volumes for the worked examples
//
// Shapes to expect (Section 6): POSTORDERMINIO far behind on SYNTH,
// RECEXPAND ≤ OPTMINMEM nearly everywhere, FULLRECEXPAND ≈ RECEXPAND, all
// methods close on TREES, gaps widening at M1=LB and vanishing at
// M2=Peak−1.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaosnet"
	"repro/internal/core"
	"repro/internal/expand"
	"repro/internal/experiments"
	"repro/internal/liu"
	"repro/internal/memsim"
	"repro/internal/oocexec"
	"repro/internal/postorder"
	"repro/internal/randtree"
	"repro/internal/schedclient"
	"repro/internal/schedd"
	"repro/internal/search"
	"repro/internal/sparse"
	"repro/internal/tree"
)

// --- Figure 2: adversarial families ---------------------------------------

func BenchmarkFig2aPostorderGap(b *testing.B) {
	M := int64(20)
	tr, good, err := experiments.Fig2a(4, M)
	if err != nil {
		b.Fatal(err)
	}
	var gio, pio int64
	for i := 0; i < b.N; i++ {
		gio, err = memsim.IOOf(tr, M, good)
		if err != nil {
			b.Fatal(err)
		}
		_, pio, _ = postorder.MinIO(tr, M)
	}
	b.ReportMetric(float64(gio), "io_optimal")
	b.ReportMetric(float64(pio), "io_postorderminio")
}

func BenchmarkFig2bExample(b *testing.B) {
	tr, chain := experiments.Fig2b()
	M := experiments.Fig2bM
	var oio, cio int64
	for i := 0; i < b.N; i++ {
		sched, _ := liu.MinMem(tr)
		var err error
		oio, err = memsim.IOOf(tr, M, sched)
		if err != nil {
			b.Fatal(err)
		}
		cio, err = memsim.IOOf(tr, M, chain)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(oio), "io_optminmem")
	b.ReportMetric(float64(cio), "io_chain")
}

func BenchmarkFig2cOptMinMemGap(b *testing.B) {
	k := int64(8)
	tr, chain, M, err := experiments.Fig2c(k)
	if err != nil {
		b.Fatal(err)
	}
	var oio, cio int64
	for i := 0; i < b.N; i++ {
		sched, _ := liu.MinMem(tr)
		oio, err = memsim.IOOf(tr, M, sched)
		if err != nil {
			b.Fatal(err)
		}
		cio, err = memsim.IOOf(tr, M, chain)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(oio), "io_optminmem")
	b.ReportMetric(float64(cio), "io_chain")
}

// --- Figures 6 and 7: worked examples --------------------------------------

func BenchmarkFig6FullRecExpand(b *testing.B) {
	tr, _, _ := experiments.Fig6()
	var full *expand.Result
	var err error
	for i := 0; i < b.N; i++ {
		full, err = expand.FullRecExpand(tr, experiments.Fig6M)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(full.IO), "io_fullrecexpand")
}

func BenchmarkFig7PostOrder(b *testing.B) {
	tr, _, _, _ := experiments.Fig7()
	var pio int64
	for i := 0; i < b.N; i++ {
		_, pio, _ = postorder.MinIO(tr, experiments.Fig7M)
	}
	b.ReportMetric(float64(pio), "io_postorderminio")
}

// --- Figures 4, 5, 8, 9, 10, 11: performance profiles ----------------------

func profileBench(b *testing.B, dataset string, bound core.Bound) {
	var instances []*core.Instance
	var algs []core.Algorithm
	switch dataset {
	case "synth":
		instances = experiments.Synth(experiments.SmallSynth)
		algs = core.PaperAlgorithms
	case "trees":
		var err error
		if instances, err = experiments.Trees(experiments.SmallTrees); err != nil {
			b.Fatal(err)
		}
		algs = core.FastAlgorithms
	}
	if len(instances) == 0 {
		b.Fatal("empty dataset")
	}
	var run *experiments.RunResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err = experiments.Run(instances, algs, bound, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	profs, err := run.Profiles(nil)
	if err != nil {
		b.Fatal(err)
	}
	tab := run.PerformanceTable()
	ov, err := tab.Overheads()
	if err != nil {
		b.Fatal(err)
	}
	for m, p := range profs {
		b.ReportMetric(p.FractionWithin(5), "frac_within_5pct_"+shortName(algs[m]))
		var mean float64
		for _, v := range ov[m] {
			mean += v
		}
		b.ReportMetric(mean/float64(len(ov[m])), "mean_overhead_"+shortName(algs[m]))
	}
	b.ReportMetric(float64(len(instances)), "instances")
}

func shortName(a core.Algorithm) string {
	switch a {
	case core.OptMinMem:
		return "optminmem"
	case core.PostOrderMinIO:
		return "pominio"
	case core.RecExpand:
		return "recexpand"
	case core.FullRecExpand:
		return "fullrec"
	default:
		return string(a)
	}
}

func BenchmarkFig4SynthProfiles(b *testing.B) { profileBench(b, "synth", core.BoundMid) }
func BenchmarkFig5TreesProfiles(b *testing.B) { profileBench(b, "trees", core.BoundMid) }
func BenchmarkFig8SynthLB(b *testing.B)       { profileBench(b, "synth", core.BoundLB) }
func BenchmarkFig9TreesLB(b *testing.B)       { profileBench(b, "trees", core.BoundLB) }
func BenchmarkFig10SynthPeak(b *testing.B)    { profileBench(b, "synth", core.BoundPeakMinus1) }
func BenchmarkFig11TreesPeak(b *testing.B)    { profileBench(b, "trees", core.BoundPeakMinus1) }

// --- Ablations (DESIGN.md Section 4) ---------------------------------------

// BenchmarkAblationEvictionPolicy demonstrates Theorem 1 empirically: total
// I/O across the reduced SYNTH dataset for FiF versus the NiF and
// largest-first eviction rules, all on the OPTMINMEM schedule.
func BenchmarkAblationEvictionPolicy(b *testing.B) {
	instances := experiments.Synth(experiments.SmallSynth)
	var totals [3]int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		totals = [3]int64{}
		for _, in := range instances {
			M := in.M(core.BoundMid)
			sched, _ := liu.MinMem(in.Tree)
			for pi, pol := range []memsim.EvictionPolicy{memsim.FiF, memsim.NiF, memsim.LargestFirst} {
				res, err := memsim.Run(in.Tree, M, sched, pol)
				if err != nil {
					b.Fatal(err)
				}
				totals[pi] += res.IO
			}
		}
	}
	b.ReportMetric(float64(totals[0]), "io_fif")
	b.ReportMetric(float64(totals[1]), "io_nif")
	b.ReportMetric(float64(totals[2]), "io_largestfirst")
}

// BenchmarkAblationVictimChoice compares the paper's latest-parent victim
// rule for RECEXPAND against earliest-parent and largest-τ.
func BenchmarkAblationVictimChoice(b *testing.B) {
	instances := experiments.Synth(experiments.SmallSynth)
	var totals [3]int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		totals = [3]int64{}
		for _, in := range instances {
			M := in.M(core.BoundMid)
			for pi, pol := range []expand.VictimPolicy{expand.LatestParent, expand.EarliestParent, expand.LargestTau} {
				res, err := expand.RecExpand(in.Tree, M, expand.Options{MaxPerNode: 2, Victim: pol})
				if err != nil {
					b.Fatal(err)
				}
				totals[pi] += res.IO
			}
		}
	}
	b.ReportMetric(float64(totals[0]), "io_latestparent")
	b.ReportMetric(float64(totals[1]), "io_earliestparent")
	b.ReportMetric(float64(totals[2]), "io_largesttau")
}

// BenchmarkAblationRecExpandBudget sweeps the per-node expansion budget
// (the paper fixes 2; 0 means unbounded = FULLRECEXPAND).
func BenchmarkAblationRecExpandBudget(b *testing.B) {
	instances := experiments.Synth(experiments.SmallSynth)
	budgets := []int{1, 2, 4, 8, 0}
	totals := make([]int64, len(budgets))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range totals {
			totals[j] = 0
		}
		for _, in := range instances {
			M := in.M(core.BoundMid)
			for j, budget := range budgets {
				res, err := expand.RecExpand(in.Tree, M, expand.Options{MaxPerNode: budget})
				if err != nil {
					b.Fatal(err)
				}
				totals[j] += res.IO
			}
		}
	}
	for j, budget := range budgets {
		name := fmt.Sprintf("io_budget_%d", budget)
		if budget == 0 {
			name = "io_budget_unbounded"
		}
		b.ReportMetric(float64(totals[j]), name)
	}
}

// --- Component micro-benchmarks --------------------------------------------

func synthTree(n int, seed int64) *tree.Tree {
	return randtree.Synth(n, rand.New(rand.NewSource(seed)))
}

func BenchmarkOptMinMem3000(b *testing.B) {
	tr := synthTree(3000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		liu.MinMem(tr)
	}
}

func BenchmarkPostOrderMinIO3000(b *testing.B) {
	tr := synthTree(3000, 1)
	in := core.NewInstance("x", tr)
	M := in.M(core.BoundMid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postorder.MinIO(tr, M)
	}
}

// BenchmarkScheduleLiveDataset runs the paper's evaluation loop with the
// whole SYNTH dataset live, as the evaluation holds it: each iteration
// schedules one instance with the four paper algorithms and computes its
// I/O lower bound. The garbage collector marks the live trees on every
// cycle, so the time depends on how many objects a tree is made of;
// live_heap_objects counts the objects the dataset leaves live after a
// collection (about seven per instance with flat child lists, against
// one per inner node with a slice per child list). It moves by a few
// objects between runs: the first calls in a process also leave lazily
// built package state behind.
func BenchmarkScheduleLiveDataset(b *testing.B) {
	base := liveHeapObjects()
	instances := experiments.Synth(experiments.PaperSynth)
	rn := core.NewRunner(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := instances[i%len(instances)]
		M := in.M(core.BoundMid)
		if _, err := rn.RunAll(core.PaperAlgorithms, in.Tree, M); err != nil {
			b.Fatal(err)
		}
		lbSink += core.IOLowerBound(in.Tree, M)
	}
	b.StopTimer()
	live := liveHeapObjects() - base
	runtime.KeepAlive(instances)
	b.ReportMetric(float64(live), "live_heap_objects")
}

// lbSink keeps the compiler from dropping the lower-bound calls.
var lbSink int64

// liveHeapObjects returns the number of heap objects that survive a
// collection. The second collection empties the sync.Pool victim caches.
func liveHeapObjects() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapObjects)
}

func BenchmarkRecExpand3000(b *testing.B) {
	tr := synthTree(3000, 1)
	in := core.NewInstance("x", tr)
	M := in.M(core.BoundMid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expand.RecExpandDefault(tr, M); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecExpandReference3000 runs the frozen pre-incremental engine
// (extract + from-scratch MinMem + allocating simulation per iteration) on
// the same instance as BenchmarkRecExpand3000: the pair is the headline
// before/after of the incremental expansion engine and feeds BENCH_1.json.
func BenchmarkRecExpandReference3000(b *testing.B) {
	tr := synthTree(3000, 1)
	in := core.NewInstance("x", tr)
	M := in.M(core.BoundMid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expand.ReferenceRecExpand(tr, M, expand.Options{MaxPerNode: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Large-instance scaling (30k–100k nodes, DESIGN.md Section "Scaling") --

func benchRecExpandSynth(b *testing.B, n int) {
	tr := synthTree(n, 1)
	in := core.NewInstance("x", tr)
	M := in.M(core.BoundMid)
	var last *expand.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := expand.RecExpandDefault(tr, M)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.IO), "io")
	b.ReportMetric(float64(last.Expansions), "expansions")
}

func BenchmarkRecExpand30000(b *testing.B)  { benchRecExpandSynth(b, 30000) }
func BenchmarkRecExpand100000(b *testing.B) { benchRecExpandSynth(b, 100000) }

// Deep-chain adversarial trees: a bushy I/O-bound subtree under a long unit
// spine, the regime where per-iteration subtree rescheduling is quadratic
// in the spine length. The reference pair runs at a tenth of the spine to
// stay affordable; compare ns/op against the quadratic growth it implies.
func benchRecExpandDeepChain(b *testing.B, spine, bushy int, reference bool) {
	in, err := experiments.DeepChain(spine, bushy, 1)
	if err != nil {
		b.Fatal(err)
	}
	M := in.M(core.BoundMid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if reference {
			_, err = expand.ReferenceRecExpand(in.Tree, M, expand.Options{MaxPerNode: 2})
		} else {
			_, err = expand.RecExpandDefault(in.Tree, M)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecExpandDeepChain30000(b *testing.B) { benchRecExpandDeepChain(b, 29000, 1000, false) }
func BenchmarkRecExpandDeepChainReference3000(b *testing.B) {
	benchRecExpandDeepChain(b, 2900, 100, true)
}

// --- Sharded profile warm (workers sweep; DESIGN.md §2.5) ------------------
//
// Options.Workers shards only the initial profile warm; the expansion walk
// is sequential. The three shapes split differently: the wide SYNTH tree
// into many unevenly sized shards, the deep chain mostly inside its bushy
// bottom (the spine is one long path the join finishes sequentially), and
// the forest of identical bushy subtrees into k equal shards. Results are
// bit-identical across worker counts; only wall-clock may differ.

func benchRecExpandWorkers(b *testing.B, in *core.Instance) {
	M := in.M(core.BoundMid)
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var last *expand.Result
			for i := 0; i < b.N; i++ {
				res, err := expand.RecExpand(in.Tree, M, expand.Options{MaxPerNode: 2, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.IO), "io")
			b.ReportMetric(float64(last.Expansions), "expansions")
		})
	}
}

func BenchmarkRecExpandParallelWide100000(b *testing.B) {
	benchRecExpandWorkers(b, core.NewInstance("", synthTree(100000, 1)))
}

func BenchmarkRecExpandParallelDeepChain30000(b *testing.B) {
	in, err := experiments.DeepChain(29000, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchRecExpandWorkers(b, in)
}

func BenchmarkRecExpandParallelForest100000(b *testing.B) {
	in, err := experiments.Forest(8, 12500, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchRecExpandWorkers(b, in)
}

// --- Bounded-memory profile cache ------------------------------------------

// The cache-budget family runs RECEXPAND on a 200k-node slice of the
// experiments.Huge staircase forest — the segment-heavy caterpillar-profile
// regime where the resident profile set dwarfs the schedule ropes — under
// residency budgets expressed as fractions of the unbounded footprint.
// Results are bit-identical across rows (asserted); the metrics show what
// the memory bound costs in rematerializations and saves in resident
// bytes. The 10⁷-node tier lives in cmd/minio-bench -fig huge -scale paper
// and TestHugeTreeBudgeted (see BENCH.md).
func benchRecExpandCacheBudget(b *testing.B, divisor int64) {
	in := experiments.Huge(200000, 1)
	M := in.M(core.BoundMid)
	eng := expand.NewEngine()
	var budget int64
	if divisor > 0 {
		res, err := eng.RecExpand(in.Tree, M, expand.Options{MaxPerNode: 2, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
		budget = eng.CacheStats().PeakResidentBytes / divisor
	}
	b.ResetTimer()
	var last *expand.Result
	for i := 0; i < b.N; i++ {
		var err error
		last, err = eng.RecExpand(in.Tree, M, expand.Options{MaxPerNode: 2, Workers: 1, CacheBudget: budget})
		if err != nil {
			b.Fatal(err)
		}
	}
	st := eng.CacheStats()
	b.ReportMetric(float64(st.PeakResidentBytes)/(1<<20), "resident_MiB")
	b.ReportMetric(float64(st.Rematerializations), "remats")
	b.ReportMetric(float64(last.IO), "io")
	b.ReportMetric(float64(peakRSSBytes()), "peak_rss_bytes")
}

func BenchmarkRecExpandCacheBudgetUnlimited200k(b *testing.B) { benchRecExpandCacheBudget(b, 0) }
func BenchmarkRecExpandCacheBudgetTenth200k(b *testing.B)     { benchRecExpandCacheBudget(b, 10) }
func BenchmarkRecExpandCacheBudgetHundredth200k(b *testing.B) { benchRecExpandCacheBudget(b, 100) }

// --- Streaming schedule emission (DESIGN.md §2.8) ---------------------------

// The streamed-emission pair A/Bs the two entry points of the expansion
// engine on the budgeted 200k-node staircase slice: RecExpandStream
// (segments consumed and dropped) against the materializing RecExpand
// (the same finish, with a collector appending the segments into the
// n-word schedule). Results are bit-identical — the pair differs only in
// wall-clock and in the peak_rss_bytes / resident_MiB columns, which is
// the point: the streamed row is the one a >10⁸-node run scales by.
//
// The budget is FIXED (not calibrated from an unbounded run: that run
// would itself materialize the schedule and set the monotone process RSS
// high-water, voiding the pair's delta), and the Stream benchmark is
// defined (and thus runs) before the Materialized one. The delta reading
// still requires benchmarking the pair in isolation —
// `-bench 'RecExpand(Stream|Materialized)200k'` — because in a full
// combined run earlier, larger benchmarks (the unbudgeted CacheBudget
// calibration on the same input) have already set the process high-water
// above anything the budgeted pair reaches (see BENCH.md).
func benchRecExpandEmit(b *testing.B, stream bool, ctx context.Context) {
	in := experiments.Huge(200000, 1)
	M := in.M(core.BoundMid)
	eng := expand.NewEngine()
	// ≈ the 1/10 tier of the 200k staircase's unbounded footprint (BENCH_4).
	opts := expand.Options{MaxPerNode: 2, Workers: 1, CacheBudget: 40 << 20, Ctx: ctx}
	res, err := eng.RecExpandStream(in.Tree, M, opts, func(seg []int) bool { return true })
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last *expand.Result
	var steps int64
	for i := 0; i < b.N; i++ {
		var err error
		if stream {
			steps = 0
			last, err = eng.RecExpandStream(in.Tree, M, opts, func(seg []int) bool {
				steps += int64(len(seg))
				return true
			})
		} else {
			last, err = eng.RecExpand(in.Tree, M, opts)
			steps = int64(len(last.Schedule))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if last.IO != res.IO || last.Expansions != res.Expansions {
		b.Fatalf("engines disagree: io %d vs %d", last.IO, res.IO)
	}
	st := eng.CacheStats()
	b.ReportMetric(float64(st.PeakResidentBytes)/(1<<20), "resident_MiB")
	b.ReportMetric(float64(steps), "steps")
	b.ReportMetric(float64(last.IO), "io")
	b.ReportMetric(float64(peakRSSBytes()), "peak_rss_bytes")
}

func BenchmarkRecExpandStream200k(b *testing.B)       { benchRecExpandEmit(b, true, nil) }
func BenchmarkRecExpandMaterialized200k(b *testing.B) { benchRecExpandEmit(b, false, nil) }

// BenchmarkWarmStaircase200k times the initial profile warm alone on the
// 200k staircase, sharded over GOMAXPROCS workers under the streamed
// pair's 40 MiB budget: the out-of-core regime, where every worker evicts
// consumed slices within its shard and batches its resident-byte
// accounting (the staircase rows above all warm with one worker). Each
// iteration warms a fresh mutable tree; resident_MiB is the cache's
// reported high-water mark and sliced the slices the budget dropped.
func BenchmarkWarmStaircase200k(b *testing.B) {
	in := experiments.Huge(200000, 1)
	workers := runtime.GOMAXPROCS(0)
	var st liu.CacheStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := expand.NewMutable(in.Tree)
		m.EnableProfilesOpts(liu.CacheOptions{MaxResidentBytes: 40 << 20})
		b.StartTimer()
		m.InitialPeaks(workers)
		st = m.ProfileStats()
	}
	b.ReportMetric(float64(st.PeakResidentBytes)/(1<<20), "resident_MiB")
	b.ReportMetric(float64(st.SlicedProfiles), "sliced")
}

// BenchmarkRecExpandStreamCancelable200k is BenchmarkRecExpandStream200k
// with a live (never-fired) cancellation context, measuring what arming
// cancellation costs a run that is not cancelled. A plain
// context.Background() would not do: its Done() is nil, which the engine
// detects and strips back to the zero-overhead path, so the benchmark uses
// context.WithCancel to force a real Done channel through every per-segment
// and per-iteration check. The acceptance bar (BENCH.md) is <2% over the
// Stream row — but read that delta from
// BenchmarkRecExpandStreamCancelOverhead200k's paired cancel_overhead_pct
// metric, not by subtracting this row from the Stream row: consecutive
// half-second benchmarks in one process drift by ~5-10% from heap and GC
// state alone, swamping the real cost.
func BenchmarkRecExpandStreamCancelable200k(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	benchRecExpandEmit(b, true, ctx)
}

// BenchmarkRecExpandStreamCancelOverhead200k measures the cancellation
// arming cost with a paired design: each loop iteration times one unarmed
// run and one armed run (live WithCancel context) back to back on the same
// engine, so process-lifetime drift (heap high-water, GC pacing) hits both
// arms equally and cancels out of the reported delta. cancel_overhead_pct
// is the headline number for the <2% acceptance bar; ns/op for this
// benchmark covers BOTH runs of a pair and is not comparable to the
// Stream/Materialized rows.
func BenchmarkRecExpandStreamCancelOverhead200k(b *testing.B) {
	in := experiments.Huge(200000, 1)
	M := in.M(core.BoundMid)
	eng := expand.NewEngine()
	plain := expand.Options{MaxPerNode: 2, Workers: 1, CacheBudget: 40 << 20}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	armed := plain
	armed.Ctx = ctx
	yield := func(seg []int) bool { return true }
	for _, o := range []expand.Options{plain, armed} {
		if _, err := eng.RecExpandStream(in.Tree, M, o, yield); err != nil {
			b.Fatal(err)
		}
	}
	run := func(o expand.Options) time.Duration {
		s := time.Now()
		if _, err := eng.RecExpandStream(in.Tree, M, o, yield); err != nil {
			b.Fatal(err)
		}
		return time.Since(s)
	}
	var tPlain, tArmed time.Duration
	deltas := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate which arm runs first so a position-in-pair bias (GC
		// pacing tends to hit the same slot of every iteration) cannot
		// masquerade as cancellation cost.
		var dp, da time.Duration
		if i%2 == 0 {
			dp = run(plain)
			da = run(armed)
		} else {
			da = run(armed)
			dp = run(plain)
		}
		tPlain += dp
		tArmed += da
		deltas = append(deltas, (float64(da)/float64(dp)-1)*100)
	}
	b.StopTimer()
	// The median per-pair delta is the headline: a single GC-interrupted
	// run skews a ratio-of-sums by several percent at small pair counts,
	// but moves the median not at all.
	sort.Float64s(deltas)
	b.ReportMetric(float64(tPlain.Nanoseconds())/float64(b.N), "plain_ns")
	b.ReportMetric(float64(tArmed.Nanoseconds())/float64(b.N), "armed_ns")
	b.ReportMetric(deltas[len(deltas)/2], "cancel_overhead_pct")
}

// BenchmarkRecExpandStreamCkptOverhead200k measures the durability tax of
// checkpoint arming with the same paired design as the cancellation
// benchmark: each iteration times one disarmed and one armed (durable
// checkpoint file, fsync per write) streamed run back to back on the same
// engine, alternating order, and reports the median per-pair delta as
// ckpt_overhead_pct. The sub-benchmarks sweep the write interval: the
// default (256 events) is the <5% acceptance bar of the durability model
// (DESIGN.md §2.10); interval 1 is the worst case, one fsynced checkpoint
// per checkpointable event. Disarmed runs take the ck == nil branch in the
// hot loop — no logging, no allocation — so the plain arm doubles as the
// zero-overhead control. ns/op covers BOTH runs of a pair and is not
// comparable to the Stream row.
func BenchmarkRecExpandStreamCkptOverhead200k(b *testing.B) {
	for _, interval := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("interval%d", interval), func(b *testing.B) {
			in := experiments.Huge(200000, 1)
			M := in.M(core.BoundMid)
			eng := expand.NewEngine()
			plain := expand.Options{MaxPerNode: 2, Workers: 1, CacheBudget: 40 << 20}
			armed := plain
			armed.Checkpoint = expand.CheckpointOptions{
				Path:     b.TempDir() + "/bench.ckpt",
				Interval: interval,
			}
			yield := func(seg []int) bool { return true }
			for _, o := range []expand.Options{plain, armed} {
				if _, err := eng.RecExpandStream(in.Tree, M, o, yield); err != nil {
					b.Fatal(err)
				}
			}
			run := func(o expand.Options) time.Duration {
				s := time.Now()
				if _, err := eng.RecExpandStream(in.Tree, M, o, yield); err != nil {
					b.Fatal(err)
				}
				return time.Since(s)
			}
			// The armed arm differs from the plain one by a handful of
			// small fsynced writes (one at the default interval), far
			// below the run-to-run drift of a single pair, so each
			// iteration runs several pairs and the median is taken over
			// all of them: 5 benchtime iterations yield a 25-pair median.
			const pairs = 5
			var tPlain, tArmed time.Duration
			deltas := make([]float64, 0, pairs*b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < pairs; j++ {
					// Alternate which arm runs first so a position-in-pair
					// bias cannot masquerade as checkpointing cost.
					var dp, da time.Duration
					if (i+j)%2 == 0 {
						dp = run(plain)
						da = run(armed)
					} else {
						da = run(armed)
						dp = run(plain)
					}
					tPlain += dp
					tArmed += da
					deltas = append(deltas, (float64(da)/float64(dp)-1)*100)
				}
			}
			b.StopTimer()
			sort.Float64s(deltas)
			b.ReportMetric(float64(tPlain.Nanoseconds())/float64(pairs*b.N), "plain_ns")
			b.ReportMetric(float64(tArmed.Nanoseconds())/float64(pairs*b.N), "armed_ns")
			b.ReportMetric(deltas[len(deltas)/2], "ckpt_overhead_pct")
		})
	}
}

func BenchmarkFiFSimulator3000(b *testing.B) {
	tr := synthTree(3000, 1)
	in := core.NewInstance("x", tr)
	M := in.M(core.BoundMid)
	sched, _ := liu.MinMem(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := memsim.Run(tr, M, sched, memsim.FiF); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEtreeAnalysis(b *testing.B) {
	pat, err := sparse.Grid2D(64, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parent := sparse.Etree(pat)
		post := sparse.EtreePostorder(parent)
		counts := sparse.ColCounts(pat, parent)
		sparse.Amalgamate(parent, post, counts, 0)
	}
}

func BenchmarkUniformBinaryTree3000(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		randtree.Remy(3000, rng)
	}
}

// --- Extensions beyond the paper --------------------------------------------

// BenchmarkLocalSearchHeadroom measures how much I/O a schedule-space local
// search can still shave off RECEXPAND's result on small instances, against
// the provable lower bound max(0, Peak − M).
func BenchmarkLocalSearchHeadroom(b *testing.B) {
	instances := experiments.Synth(experiments.SynthConfig{Count: 10, Nodes: 120, Seed: 2})
	var recTotal, searchTotal, lbTotal int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recTotal, searchTotal, lbTotal = 0, 0, 0
		for _, in := range instances {
			M := in.M(core.BoundMid)
			res, err := expand.RecExpandDefault(in.Tree, M)
			if err != nil {
				b.Fatal(err)
			}
			s, err := search.Improve(in.Tree, M, res.Schedule, search.Options{Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			recTotal += res.IO
			searchTotal += s.IO
			lbTotal += core.IOLowerBound(in.Tree, M)
		}
	}
	b.ReportMetric(float64(recTotal), "io_recexpand")
	b.ReportMetric(float64(searchTotal), "io_after_search")
	b.ReportMetric(float64(lbTotal), "io_lower_bound")
}

// BenchmarkOutOfCoreExecute times the byte-level executor on the
// paper-eval shape: 3 000-node SYNTH at the mid bound, RecExpand's
// schedule, 16-byte units, with the memory and the file spill store. The
// executor never writes into a task's output, so Compute hands out
// per-node outputs allocated before the timer and the benchmark times
// Execute alone. It reports the realized spill volume.
func BenchmarkOutOfCoreExecute(b *testing.B) {
	const unit = 16
	tr := synthTree(3000, 4)
	M := core.NewInstance("x", tr).M(core.BoundMid)
	res, err := expand.RecExpand(tr, M, expand.Options{MaxPerNode: 2})
	if err != nil {
		b.Fatal(err)
	}
	outs := make([][]byte, tr.N())
	for v := range outs {
		outs[v] = make([]byte, tr.Weight(v)*unit)
	}
	f := func(node int, _ map[int][]byte) ([]byte, error) { return outs[node], nil }
	for _, store := range []struct{ name, dir string }{{"mem", ""}, {"file", b.TempDir()}} {
		b.Run(store.name, func(b *testing.B) {
			cfg := oocexec.Config{UnitSize: unit, SpillDir: store.dir}
			var spilled int64
			for i := 0; i < b.N; i++ {
				_, st, err := oocexec.Execute(tr, M, res.Schedule, cfg, f)
				if err != nil {
					b.Fatal(err)
				}
				spilled = st.UnitsWritten
			}
			b.ReportMetric(float64(spilled), "units_spilled")
		})
	}
}

// --- Serving benchmarks (schedd) -------------------------------------------
//
// The BenchmarkScheddLoad family measures the daemon end to end — HTTP
// admission, budget leases, engine pool, schedule streaming — with the
// in-process equivalent of cmd/schedload: concurrent clients, per-request
// latency, percentile metrics (nearest rank, as in BENCH.md). ns/op is the
// per-request wall clock as seen by a client under that concurrency, and
// p50_ms/p99_ms report the distribution behind it; served_frac separates
// load-shedding (429, an admission outcome) from service.

// scheddBenchBodies synthesizes I/O-bound request bodies with the bound
// precomputed client-side, so the serving path measures expansion and
// streaming rather than per-request instance analysis.
func scheddBenchBodies(b *testing.B, trees, nodes int, waitMS int64) [][]byte {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	bodies := make([][]byte, 0, trees)
	for len(bodies) < trees {
		tr := randtree.Synth(nodes, rng)
		in := core.NewInstance("bench", tr)
		if !in.NeedsIO() {
			continue
		}
		raw, err := json.Marshal(tr)
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(struct {
			Tree   json.RawMessage `json:"tree"`
			M      int64           `json:"m"`
			WaitMS int64           `json:"wait_ms,omitempty"`
		}{Tree: raw, M: in.M(core.BoundMid), WaitMS: waitMS})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// scheddBenchRun drives b.N requests from c concurrent clients round-robin
// over bodies against an in-process schedd and reports latency percentiles
// and the served fraction. Any outcome other than a sealed 200 stream or a
// 429 fails the benchmark.
func scheddBenchRun(b *testing.B, cfg schedd.Config, c int, bodies [][]byte) {
	b.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := schedd.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var idx, served, rejected int64
	var mu sync.Mutex
	var lat []float64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&idx, 1) - 1
				if i >= int64(b.N) {
					return
				}
				body := bodies[i%int64(len(bodies))]
				t0 := time.Now()
				resp, err := http.Post(ts.URL+"/schedule", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				out, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					b.Error(rerr)
					return
				}
				d := time.Since(t0)
				switch {
				case resp.StatusCode == http.StatusOK && bytes.Contains(out, []byte("# end count=")):
					mu.Lock()
					served++
					lat = append(lat, float64(d.Microseconds())/1e3)
					mu.Unlock()
				case resp.StatusCode == http.StatusTooManyRequests:
					atomic.AddInt64(&rejected, 1)
				default:
					b.Errorf("request %d: status %d, sealed=%v", i, resp.StatusCode,
						bytes.Contains(out, []byte("# end count=")))
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()

	if st := s.Broker().Stats(); st.Used != 0 || st.Leases != 0 {
		b.Fatalf("benchmark leaked leases: %+v", st)
	}
	sort.Float64s(lat)
	rank := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p*float64(len(lat))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i]
	}
	b.ReportMetric(rank(0.50), "p50_ms")
	b.ReportMetric(rank(0.99), "p99_ms")
	b.ReportMetric(float64(served)/float64(b.N), "served_frac")
	b.ReportMetric(float64(rejected), "rejected")
}

// BenchmarkScheddLoadServe is the headline serving latency: ample budget,
// every request admitted immediately, four engines under eight clients.
func BenchmarkScheddLoadServe(b *testing.B) {
	bodies := scheddBenchBodies(b, 4, 2000, 0)
	scheddBenchRun(b, schedd.Config{Budget: 256 << 20, Engines: 4}, 8, bodies)
}

// BenchmarkScheddLoadOverload runs the same workload against a budget that
// admits only two concurrent leases with fail-fast clients: the served
// fraction and 429 count quantify load shedding under pressure, and the
// percentiles cover the served requests only.
func BenchmarkScheddLoadOverload(b *testing.B) {
	bodies := scheddBenchBodies(b, 4, 2000, 0)
	cost := schedd.EstimateCost(2000)
	scheddBenchRun(b, schedd.Config{Budget: 2 * cost, Engines: 4}, 8, bodies)
}

// BenchmarkScheddLoadQueued replays the overload with clients that declare
// an admission wait instead of failing fast: everything is served and the
// queueing delay shows up in the latency percentiles.
func BenchmarkScheddLoadQueued(b *testing.B) {
	bodies := scheddBenchBodies(b, 4, 2000, 10_000)
	cost := schedd.EstimateCost(2000)
	scheddBenchRun(b, schedd.Config{Budget: 2 * cost, Engines: 4, MaxWait: 30 * time.Second}, 8, bodies)
}

// scheddChaosRun drives b.N keyed requests through client↔proxy↔daemon —
// the retrying schedclient against an in-process schedd behind a chaosnet
// fault proxy — and reports the recovery cost: latency percentiles of the
// reassembled (byte-verified) requests, total retries and resumes, and the
// goodput of verified schedule bytes. With zero fault probabilities the
// same path measures the pure proxy+client overhead baseline.
func scheddChaosRun(b *testing.B, resetP, truncP float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	var tr *tree.Tree
	var in *core.Instance
	for {
		tr = randtree.Synth(2000, rng)
		in = core.NewInstance("bench", tr)
		if in.NeedsIO() {
			break
		}
	}
	M := in.M(core.BoundMid)
	var wantBuf bytes.Buffer
	rn := core.NewRunner(1)
	if _, err := tree.WriteSchedule(&wantBuf, func(yield func(seg []int) bool) bool {
		_, rerr := rn.RunStream(core.RecExpand, tr, M, yield)
		return rerr == nil
	}); err != nil {
		b.Fatal(err)
	}
	want := wantBuf.Bytes()
	raw, err := json.Marshal(tr)
	if err != nil {
		b.Fatal(err)
	}
	req := schedd.Request{Tree: raw, M: M, WaitMS: 10_000}

	s, err := schedd.NewServer(schedd.Config{
		Budget:        256 << 20,
		Engines:       4,
		MaxWait:       30 * time.Second,
		CheckpointDir: b.TempDir(),
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	p, err := chaosnet.New(chaosnet.Config{
		Target:        ts.Listener.Addr().String(),
		Seed:          42,
		ResetProb:     resetP,
		TruncProb:     truncP,
		FaultAfterMax: 32 << 10,
		MaxFaults:     int64(b.N) * 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	cl := schedclient.New(schedclient.Config{
		BaseURL:       "http://" + p.Addr(),
		HTTPClient:    &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		MaxAttempts:   16,
		BaseBackoff:   2 * time.Millisecond,
		MaxBackoff:    50 * time.Millisecond,
		MaxRetryAfter: 50 * time.Millisecond,
		Seed:          42,
	})

	var idx, retries, resumes, goodBytes int64
	var mu sync.Mutex
	var lat []float64
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&idx, 1) - 1
				if i >= int64(b.N) {
					return
				}
				t0 := time.Now()
				res, err := cl.Stream(context.Background(), req)
				if err != nil {
					b.Error(err)
					return
				}
				if !bytes.Equal(res.Stream, want) {
					b.Errorf("request %d: reassembled stream diverges from ground truth", i)
					return
				}
				d := time.Since(t0)
				atomic.AddInt64(&retries, int64(res.Retries))
				atomic.AddInt64(&resumes, int64(res.Resumes))
				atomic.AddInt64(&goodBytes, int64(len(res.Stream)))
				mu.Lock()
				lat = append(lat, float64(d.Microseconds())/1e3)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	b.StopTimer()

	if st := s.Broker().Stats(); st.Used != 0 || st.Leases != 0 {
		b.Fatalf("benchmark leaked leases: %+v", st)
	}
	sort.Float64s(lat)
	rank := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p*float64(len(lat))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i]
	}
	b.ReportMetric(rank(0.50), "p50_ms")
	b.ReportMetric(rank(0.99), "p99_ms")
	b.ReportMetric(float64(retries), "retries")
	b.ReportMetric(float64(resumes), "resumes")
	if secs := wall.Seconds(); secs > 0 {
		b.ReportMetric(float64(goodBytes)/secs, "goodput_bps")
	}
}

// BenchmarkScheddLoadChaosClean is the chaos-path overhead baseline: the
// full client↔proxy↔daemon stack with zero fault probability, so the delta
// against BenchmarkScheddLoadServe prices the proxy hop, the per-request
// connection, and the client's spool-and-verify pass.
func BenchmarkScheddLoadChaosClean(b *testing.B) {
	scheddChaosRun(b, 0, 0)
}

// BenchmarkScheddLoadChaosFaulty injects resets and truncations on half
// the connections: the latency percentiles and goodput price what the
// repair-and-resume loop pays to keep every stream byte-identical.
func BenchmarkScheddLoadChaosFaulty(b *testing.B) {
	scheddChaosRun(b, 0.25, 0.25)
}
