// Command minio-bench regenerates the data behind every figure of the
// paper's evaluation: the adversarial families of Section 4 (Figure 2),
// the worked examples of Appendix A (Figures 6–7), and the performance
// profiles of Section 6 / Appendix B (Figures 4, 5, 8, 9, 10, 11).
//
// Beyond the paper's figures, `-fig perf` measures the incremental
// expansion engine against the frozen reference engine across instance
// sizes (the repo's performance trajectory; see DESIGN.md).
//
// Usage:
//
//	minio-bench -fig 4                 # SYNTH profiles, reduced scale
//	minio-bench -fig 5 -scale paper    # TREES profiles at paper scale
//	minio-bench -fig 2c                # adversarial family table
//	minio-bench -fig perf              # engine A/B timings
//	minio-bench -fig all               # everything
//	minio-bench -fig 4 -csv fig4.csv   # also dump the profile as CSV
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/expand"
	"repro/internal/experiments"
	"repro/internal/liu"
	"repro/internal/memsim"
	"repro/internal/postorder"
	"repro/internal/profile"
	"repro/internal/randtree"
	"repro/internal/stats"
	"repro/internal/tree"
)

// runCtx is the process-wide cancellation signal: main arms it with
// SIGINT/SIGTERM so the long figure runs (dataset sweeps, the huge
// streaming run) abort gracefully instead of being killed mid-write.
var runCtx = context.Background()

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2a, 2b, 2c, 4, 5, 6, 7, 8, 9, 10, 11, perf, huge, all")
	scale := flag.String("scale", "small", "dataset scale: small or paper")
	seed := flag.Int64("seed", 9025, "dataset seed")
	workers := flag.Int("workers", 0, "instances in flight for the dataset figures; shards of the expansion engine's initial profile warm for -fig perf and huge (0 = GOMAXPROCS; for the warm, auto on trees of 4096+ nodes)")
	cacheBudgetStr := flag.String("cache-budget", "", "resident-byte budget of the expansion engine's profile caches, e.g. 64MiB (empty or 0 = unlimited); results are identical for every budget")
	csv := flag.String("csv", "", "write the profile of the selected figure as CSV to this file")
	schedOut := flag.String("sched-out", "", "with -fig huge: stream the unbounded run's schedule to this file (one id per line) instead of discarding it")
	flag.Parse()

	cacheBudget, err := core.ParseByteSize(*cacheBudgetStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "minio-bench:", err)
		os.Exit(1)
	}
	// First SIGINT/SIGTERM cancels runCtx for a graceful stop; once it is
	// done the handler is uninstalled, so a second signal force-kills.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()
	runCtx = ctx
	if err := dispatch(*fig, *scale, *seed, *workers, cacheBudget, *csv, *schedOut); err != nil {
		fmt.Fprintln(os.Stderr, "minio-bench:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130) // interrupted, 128+SIGINT
		}
		os.Exit(1)
	}
}

func dispatch(fig, scale string, seed int64, workers int, cacheBudget int64, csv, schedOut string) error {
	all := fig == "all"
	did := false
	runFig := func(name string, f func() error) error {
		if !all && fig != name {
			return nil
		}
		did = true
		fmt.Printf("=== Figure %s ===\n", name)
		if err := f(); err != nil {
			return fmt.Errorf("figure %s: %w", name, err)
		}
		fmt.Println()
		return nil
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"2a", fig2a},
		{"2b", fig2b},
		{"2c", fig2c},
		{"6", fig6},
		{"7", fig7},
		{"4", func() error {
			return profileFigure("4", "synth", core.BoundMid, scale, seed, workers, cacheBudget, csv, false)
		}},
		{"5", func() error {
			return profileFigure("5", "trees", core.BoundMid, scale, seed, workers, cacheBudget, csv, true)
		}},
		{"8", func() error {
			return profileFigure("8", "synth", core.BoundLB, scale, seed, workers, cacheBudget, csv, false)
		}},
		{"9", func() error {
			return profileFigure("9", "trees", core.BoundLB, scale, seed, workers, cacheBudget, csv, true)
		}},
		{"10", func() error {
			return profileFigure("10", "synth", core.BoundPeakMinus1, scale, seed, workers, cacheBudget, csv, false)
		}},
		{"11", func() error {
			return profileFigure("11", "trees", core.BoundPeakMinus1, scale, seed, workers, cacheBudget, csv, true)
		}},
		{"perf", func() error { return perfFigure(scale, seed, workers, cacheBudget) }},
	}
	if fig == "huge" {
		// Not part of "all": a 10⁶/10⁷-node instance takes a while and is
		// its own exercise — run it explicitly.
		did = true
		fmt.Println("=== Figure huge ===")
		if err := hugeFigure(scale, seed, workers, cacheBudget, schedOut); err != nil {
			return fmt.Errorf("figure huge: %w", err)
		}
		return nil
	}
	for _, s := range steps {
		if err := runFig(s.name, s.f); err != nil {
			return err
		}
	}
	if !did {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

func fig2a() error {
	M := int64(20)
	tab := stats.NewTable("levels", "n", "leaves", "good_schedule_IO", "postorderminio_IO")
	for levels := 0; levels <= 6; levels++ {
		tr, good, err := experiments.Fig2a(levels, M)
		if err != nil {
			return err
		}
		gio, err := memsim.IOOf(tr, M, good)
		if err != nil {
			return err
		}
		_, pio, _ := postorder.MinIO(tr, M)
		tab.AddRowf("%d %d %d %d %d", levels, tr.N(), 2+levels, gio, pio)
	}
	fmt.Printf("M = %d; the good traversal pays 1 I/O regardless of size, every postorder Ω(n·M):\n", M)
	return tab.Write(os.Stdout)
}

func fig2b() error {
	tr, chain := experiments.Fig2b()
	M := experiments.Fig2bM
	sched, peak := liu.MinMem(tr)
	oio, err := memsim.IOOf(tr, M, sched)
	if err != nil {
		return err
	}
	cio, err := memsim.IOOf(tr, M, chain)
	if err != nil {
		return err
	}
	cpeak, err := memsim.Peak(tr, chain)
	if err != nil {
		return err
	}
	fmt.Printf("M = %d\n", M)
	fmt.Printf("OPTMINMEM:        peak %d, I/O %d (paper: peak 8, I/O 4)\n", peak, oio)
	fmt.Printf("chain-after-chain: peak %d, I/O %d (paper: peak 9, I/O 3)\n", cpeak, cio)
	return nil
}

func fig2c() error {
	tab := stats.NewTable("k", "M", "optminmem_peak", "optminmem_IO", "chain_IO", "paper_optminmem_IO")
	for k := int64(2); k <= 12; k += 2 {
		tr, chain, M, err := experiments.Fig2c(k)
		if err != nil {
			return err
		}
		sched, peak := liu.MinMem(tr)
		oio, err := memsim.IOOf(tr, M, sched)
		if err != nil {
			return err
		}
		cio, err := memsim.IOOf(tr, M, chain)
		if err != nil {
			return err
		}
		tab.AddRowf("%d %d %d %d %d %d", k, M, peak, oio, cio, k*(k+1))
	}
	fmt.Println("OPTMINMEM pays Θ(k²) I/Os where 2k suffice:")
	return tab.Write(os.Stdout)
}

func fig6() error {
	tr, a, b := experiments.Fig6()
	M := experiments.Fig6M
	sched, peak := liu.MinMem(tr)
	res, err := memsim.Run(tr, M, sched, memsim.FiF)
	if err != nil {
		return err
	}
	full, err := expand.FullRecExpand(tr, M)
	if err != nil {
		return err
	}
	_, pio, _ := postorder.MinIO(tr, M)
	fmt.Printf("M = %d\n", M)
	fmt.Printf("OPTMINMEM:      peak %d, I/O %d (τ(a)=%d on node %d, τ(b)=%d on node %d)\n",
		peak, res.IO, res.Tau[a], a, res.Tau[b], b)
	fmt.Printf("FULLRECEXPAND:  I/O %d after %d expansions (optimal: 3)\n", full.IO, full.Expansions)
	fmt.Printf("POSTORDERMINIO: I/O %d\n", pio)
	return nil
}

func fig7() error {
	tr, c, _, _ := experiments.Fig7()
	M := experiments.Fig7M
	sched, pio, _ := postorder.MinIO(tr, M)
	res, err := memsim.Run(tr, M, sched, memsim.FiF)
	if err != nil {
		return err
	}
	oSched, _ := liu.MinMem(tr)
	oio, err := memsim.IOOf(tr, M, oSched)
	if err != nil {
		return err
	}
	full, err := expand.FullRecExpand(tr, M)
	if err != nil {
		return err
	}
	fmt.Printf("M = %d\n", M)
	fmt.Printf("POSTORDERMINIO: I/O %d, all on node c=%d (τ(c)=%d)\n", pio, c, res.Tau[c])
	fmt.Printf("OPTMINMEM:      I/O %d   FULLRECEXPAND: I/O %d\n", oio, full.IO)
	fmt.Println("(the paper's tie-breaking makes its OPTMINMEM pay 4 here; see EXPERIMENTS.md)")
	return nil
}

func profileFigure(name, dataset string, bound core.Bound, scale string, seed int64, workers int, cacheBudget int64, csv string, restrict bool) error {
	var instances []*core.Instance
	var algs []core.Algorithm
	switch dataset {
	case "synth":
		cfg := experiments.SmallSynth
		if scale == "paper" {
			cfg = experiments.PaperSynth
		}
		cfg.Seed = seed
		instances = experiments.Synth(cfg)
		algs = core.PaperAlgorithms
		if scale == "paper" {
			// FULLRECEXPAND at 3000 nodes is very slow; the paper also
			// runs it only on SYNTH, so keep it but warn.
			fmt.Println("note: FULLRECEXPAND at paper scale can take a long time")
		}
	case "trees":
		cfg := experiments.SmallTrees
		if scale == "paper" {
			cfg = experiments.PaperTrees
		}
		cfg.Seed = seed
		var err error
		if instances, err = experiments.Trees(cfg); err != nil {
			return err
		}
		algs = core.FastAlgorithms
	default:
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	fmt.Printf("%s dataset: %d instances (Peak > LB), bound %s\n", dataset, len(instances), bound)
	run, err := experiments.RunBudgetedCtx(runCtx, instances, algs, bound, workers, cacheBudget)
	if err != nil {
		return err
	}
	if err := report(run); err != nil {
		return err
	}
	if restrict {
		diff := run.DifferingInstances()
		fmt.Printf("\nrestricted to the %d instances where the heuristics differ:\n", len(diff.Instances))
		if len(diff.Instances) > 0 {
			if err := report(diff); err != nil {
				return err
			}
		}
	}
	if csv != "" {
		profs, err := run.Profiles(nil)
		if err != nil {
			return err
		}
		f, err := os.Create(csv)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := profile.WriteCSV(f, profs); err != nil {
			return err
		}
		fmt.Println("CSV written to", csv)
	}
	return nil
}

// perfFigure times RECEXPAND on the incremental engine with a sequential
// profile warm, with the warm sharded over -workers goroutines (workers
// column; 0 means GOMAXPROCS), and on the frozen reference engine, on
// uniform SYNTH trees, deep-chain adversarial instances and a forest of
// identical bushy subtrees (the shape the sharded warm splits best). All
// three runs produce identical results; the reference is skipped where its
// quadratic behaviour would take minutes ("-" in the table).
func perfFigure(scale string, seed int64, workers int, cacheBudget int64) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type caze struct {
		name   string
		in     *core.Instance
		refToo bool
	}
	sizes := []int{3000, 10000, 30000}
	spines := []struct{ spine, bushy int }{{2900, 100}, {29000, 1000}}
	forests := []struct{ k, m int }{{8, 4000}}
	if scale == "paper" {
		sizes = append(sizes, 100000)
		spines = append(spines, struct{ spine, bushy int }{97000, 3000})
		forests = append(forests, struct{ k, m int }{8, 12500})
	}
	var cases []caze
	for _, n := range sizes {
		t := randtree.Synth(n, rand.New(rand.NewSource(seed)))
		cases = append(cases, caze{
			name:   fmt.Sprintf("synth-%d", n),
			in:     core.NewInstance("", t),
			refToo: n <= 3000,
		})
	}
	for _, s := range spines {
		in, err := experiments.DeepChain(s.spine, s.bushy, seed)
		if err != nil {
			return err
		}
		cases = append(cases, caze{
			name:   fmt.Sprintf("deepchain-%d", s.spine+s.bushy),
			in:     in,
			refToo: s.spine <= 3000,
		})
	}
	for _, f := range forests {
		in, err := experiments.Forest(f.k, f.m, seed)
		if err != nil {
			return err
		}
		cases = append(cases, caze{name: fmt.Sprintf("forest-%d", in.Tree.N()), in: in})
	}
	tab := stats.NewTable("instance", "n", "sequential", fmt.Sprintf("workers=%d", workers),
		"shard_speedup", "reference", "ref_speedup", "io", "expansions")
	for _, c := range cases {
		M := c.in.M(core.BoundMid)
		start := time.Now()
		res, err := expand.RecExpand(c.in.Tree, M, expand.Options{MaxPerNode: 2, Workers: 1, CacheBudget: cacheBudget, Ctx: runCtx})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		seq := time.Since(start)
		start = time.Now()
		parRes, err := expand.RecExpand(c.in.Tree, M, expand.Options{MaxPerNode: 2, Workers: workers, CacheBudget: cacheBudget, Ctx: runCtx})
		if err != nil {
			return fmt.Errorf("%s (sharded warm): %w", c.name, err)
		}
		par := time.Since(start)
		if parRes.IO != res.IO || parRes.Expansions != res.Expansions {
			return fmt.Errorf("%s: sharded-warm run disagrees: io %d vs %d", c.name, parRes.IO, res.IO)
		}
		refCol, refSpeedCol := "-", "-"
		if c.refToo {
			start = time.Now()
			ref, err := expand.ReferenceRecExpand(c.in.Tree, M, expand.Options{MaxPerNode: 2})
			if err != nil {
				return fmt.Errorf("%s (reference): %w", c.name, err)
			}
			refDur := time.Since(start)
			if ref.IO != res.IO {
				return fmt.Errorf("%s: engines disagree: %d vs %d", c.name, res.IO, ref.IO)
			}
			refCol = refDur.Round(time.Microsecond).String()
			refSpeedCol = fmt.Sprintf("%.1fx", float64(refDur)/float64(seq))
		}
		tab.AddRow(c.name, fmt.Sprint(c.in.Tree.N()),
			seq.Round(time.Microsecond).String(), par.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", float64(seq)/float64(par)),
			refCol, refSpeedCol,
			fmt.Sprint(res.IO), fmt.Sprint(res.Expansions))
	}
	fmt.Println("RECEXPAND wall-clock: sequential warm vs sharded warm vs frozen reference (identical results):")
	return tab.Write(os.Stdout)
}

// hugeFigure is the out-of-core-scale exercise of the budgeted profile
// cache: RECEXPAND on a ~10⁶-node (-scale small) or ~10⁷-node (-scale
// paper) forest, run once unbounded to calibrate the cache footprint and
// then with budgets of 1/10 and 1/100 of that footprint. All runs produce
// identical I/O volumes; the table shows what the memory bound costs in
// wall-clock and saves in resident bytes. An explicit -cache-budget adds a
// fourth row with that budget.
//
// Every run streams the schedule (expand.RecExpandStream): the final
// schedule is consumed segment by segment — written to -sched-out or
// counted and discarded — so the n-word schedule slice is never built
// (DESIGN.md §2.8). -workers shards the initial profile warm;
// its warmers account into the same resident-byte counter, so
// peak_resident covers the whole cache for every setting.
func hugeFigure(scale string, seed int64, workers int, cacheBudget int64, schedOut string) error {
	n := 1_000_000
	if scale == "paper" {
		n = 10_000_000
	}
	fmt.Printf("building ~%d-node instance...\n", n)
	start := time.Now()
	in := experiments.Huge(n, seed)
	fmt.Printf("%s: n=%d LB=%d Peak=%d (built in %s)\n",
		in.Name, in.Tree.N(), in.LB, in.Peak, time.Since(start).Round(time.Millisecond))
	M := in.M(core.BoundMid)
	eng := expand.NewEngine()
	type row struct {
		label  string
		budget int64
	}
	rows := []row{{"unlimited", 0}}
	tab := stats.NewTable("budget", "time", "peak_resident", "evictions", "remats", "io", "expansions")
	var baseIO int64
	var baseExp int
	for i := 0; i < len(rows); i++ {
		r := rows[i]
		opts := expand.Options{MaxPerNode: 2, Workers: workers, CacheBudget: r.budget, Ctx: runCtx}
		start := time.Now()
		var res *expand.Result
		var err error
		var steps int64
		if i == 0 && schedOut != "" {
			var f *os.File
			if f, err = os.Create(schedOut); err != nil {
				return err
			}
			var rerr error
			steps, err = tree.WriteSchedule(f, func(yield func(seg []int) bool) bool {
				res, rerr = eng.RecExpandStream(in.Tree, M, opts, yield)
				return rerr == nil
			})
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr // write-back errors can surface at close
			}
			if rerr != nil && rerr != expand.ErrEmissionStopped {
				// A real engine failure beats WriteSchedule's generic
				// truncation error; a write failure already sits in err
				// (the engine then only reports the consumer stop).
				err = rerr
			}
			if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
				// Graceful interruption: the stream already carries
				// WriteSchedule's truncation marker.
				fmt.Fprintf(os.Stderr, "minio-bench: interrupted: %d schedule ids flushed to %s (stream carries a truncation marker)\n", steps, schedOut)
			}
		} else {
			res, err = eng.RecExpandStream(in.Tree, M, opts, func(seg []int) bool {
				steps += int64(len(seg))
				return true
			})
		}
		if err != nil {
			return fmt.Errorf("budget %s: %w", r.label, err)
		}
		dur := time.Since(start)
		st := eng.CacheStats()
		if i == 0 {
			baseIO, baseExp = res.IO, res.Expansions
			if schedOut != "" {
				fmt.Printf("%d-step schedule streamed to %s\n", steps, schedOut)
			}
			// Budget rows derive from the measured unbounded footprint.
			rows = append(rows,
				row{"1/10", st.PeakResidentBytes / 10},
				row{"1/100", st.PeakResidentBytes / 100})
			if cacheBudget > 0 {
				rows = append(rows, row{fmt.Sprintf("%d", cacheBudget), cacheBudget})
			}
		} else if res.IO != baseIO || res.Expansions != baseExp {
			return fmt.Errorf("budget %s changed the result: io %d vs %d", r.label, res.IO, baseIO)
		}
		tab.AddRow(r.label, dur.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fMiB", float64(st.PeakResidentBytes)/(1<<20)),
			fmt.Sprint(st.Evictions), fmt.Sprint(st.Rematerializations),
			fmt.Sprint(res.IO), fmt.Sprint(res.Expansions))
	}
	fmt.Println("RECEXPAND with streamed emission under shared-cache residency budgets (identical results):")
	return tab.Write(os.Stdout)
}

func report(run *experiments.RunResult) error {
	profs, err := run.Profiles(nil)
	if err != nil {
		return err
	}
	if err := profile.Render(os.Stdout, profs, 60, 12); err != nil {
		return err
	}
	wins := run.WinLossCounts()
	tab := stats.NewTable(append([]string{"wins_vs"}, algNames(run)...)...)
	for a, alg := range run.Algorithms {
		row := []string{string(alg)}
		for b := range run.Algorithms {
			row = append(row, fmt.Sprint(wins[a][b]))
		}
		tab.AddRow(row...)
	}
	fmt.Println("\npairwise strict wins (row beats column):")
	return tab.Write(os.Stdout)
}

func algNames(run *experiments.RunResult) []string {
	out := make([]string, len(run.Algorithms))
	for i, a := range run.Algorithms {
		out[i] = string(a)
	}
	return out
}
