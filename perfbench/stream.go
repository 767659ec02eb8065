package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/expand"
	"repro/internal/experiments"
	"repro/internal/liu"
	"repro/internal/memsim"
	"repro/internal/tree"
)

// oocStream schedules the 10⁶-node staircase of experiments.Huge out of
// core: streamed at M = Mid with auto workers under a fixed profile-cache
// budget, checkpointing armed at the default interval, the schedule
// written to a file that is fsynced before the clock stops.
type oocStream struct {
	t      *tree.Tree
	M, lb  int64
	budget int64
	io     int64 // RecExpand's declared I/O, fixed by the first schedule
}

const (
	oocNodes = 1_000_000
	// oocBudget is about a tenth of the staircase's unbounded cache
	// footprint (2 044 MiB measured), so the budget evicts.
	oocBudget = 200 << 20
)

func (o *oocStream) setup(c *config) error {
	n, budget := oocNodes, int64(oocBudget)
	if c.smoke {
		n, budget = 20_000, 4<<20
	}
	in := experiments.Huge(n, c.seed)
	o.t, o.M, o.budget, o.io = in.Tree, in.M(core.BoundMid), budget, -1
	o.lb = core.IOLowerBound(in.Tree, o.M)
	return nil
}

// measure repeats the schedule while another one fits in the time and
// reports medians over the repetitions.
func (o *oocStream) measure(c *config, tr *tracer) (*phase, error) {
	var gs *goStats
	if tr != nil {
		gs = startGoStats()
	}
	layer := map[string]float64{}
	var k check
	var sched, ttfb, reps []float64
	start := now()
	for len(reps) == 0 || since(start)+median(reps) <= c.seconds {
		// Each schedule starts from a collected heap, as in a fresh
		// process, rather than from the previous one's garbage.
		runtime.GC()
		r0 := now()
		s, f, err := o.rep(c, tr, len(reps), layer)
		k.add(fmt.Sprintf("schedule %d", len(reps)), err)
		sched = append(sched, s)
		ttfb = append(ttfb, f)
		reps = append(reps, since(r0))
	}
	elapsed := since(start)
	if gs != nil {
		gs.finish(layer)
		// Time layers are per schedule, like schedule_s; expand.emit
		// excludes the consumer calls nested in it.
		for _, name := range []string{"expand.to_first_segment", "expand.emit", "tree.write"} {
			layer[name+"_s"] = tr.sumSelf(name) / float64(len(reps))
		}
	}
	return &phase{
		attempted: k.attempted, failed: k.failed,
		e2e: map[string]float64{
			"instances_per_s": float64(len(reps)) / elapsed,
			"io_units":        float64(o.io),
			"schedule_s":      median(sched),
			"peak_rss_mib":    selfPeakRSSMiB(),
			"p50_ms":          1e3 * median(sched),
			"p99_ms":          1e3 * quantile(sched, 0.99),
			"ttfb_p50_ms":     1e3 * median(ttfb),
			"ttfb_p99_ms":     1e3 * quantile(ttfb, 0.99),
		},
		layer:   layer,
		samples: map[string]any{"schedules": len(sched), "schedule_runs_s": sched},
	}, nil
}

// rep writes one schedule and verifies it. It returns the time from the
// call to the fsynced file and the time to the first streamed segment.
func (o *oocStream) rep(c *config, tr *tracer, i int, layer map[string]float64) (float64, float64, error) {
	path := filepath.Join(c.runDir, "schedule.txt")
	ckPath := filepath.Join(c.runDir, "schedule.ckpt")
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	inst := fmt.Sprintf("schedule-%d", i)
	root := tr.begin("schedule", inst, 0)
	toFirst := tr.begin("expand.to_first_segment", inst, root)
	emit := 0
	t0 := now()
	var first float64
	var res *repro.Result
	var runErr error
	n, werr := repro.WriteSchedule(f, func(yield func(seg []int) bool) bool {
		// The consumer (formatting and writing ids) is timed only when
		// traced; untraced, the wrapper just notes the first segment.
		consume := func(seg []int) bool {
			if first == 0 {
				first = since(t0)
				tr.end(toFirst)
				emit = tr.begin("expand.emit", inst, root)
			}
			if tr == nil {
				return yield(seg)
			}
			w := tr.begin("tree.write", inst, emit)
			ok := yield(seg)
			tr.end(w)
			return ok
		}
		res, runErr = o.schedule(ckPath, tr, layer, consume)
		if first == 0 {
			tr.end(toFirst)
		}
		tr.end(emit)
		return runErr == nil
	})
	tail := tr.begin("tree.write", inst, root)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	d := since(t0)
	tr.end(tail)
	tr.end(root)
	if runErr != nil {
		return d, first, runErr
	}
	if werr != nil {
		return d, first, werr
	}
	if tr != nil {
		if err := o.traceFiles(path, ckPath, layer); err != nil {
			return d, first, err
		}
	}
	return d, first, o.verify(path, n, res.IO)
}

// schedule runs the streamed RecExpand. Untraced it goes through the
// facade; traced it makes the same call on an engine of its own, whose
// cache and expansion counters the facade does not expose.
func (o *oocStream) schedule(ckPath string, tr *tracer, layer map[string]float64, yield func([]int) bool) (*repro.Result, error) {
	if tr == nil {
		return repro.ScheduleStreamed(o.t, o.M, repro.RecExpand,
			repro.Tuning{CacheBudget: o.budget, CheckpointPath: ckPath}, yield)
	}
	eng := expand.NewEngine()
	res, err := eng.RecExpandStream(o.t, o.M, expand.Options{
		MaxPerNode:  2,
		CacheBudget: o.budget,
		Checkpoint:  expand.CheckpointOptions{Path: ckPath},
	}, yield)
	if err != nil {
		return nil, err
	}
	last := map[string]float64{}
	addEngineStats(last, res, eng.CacheStats())
	for k, v := range last {
		layer[k] = v // per schedule: the last one's counters
	}
	return &repro.Result{Algorithm: repro.RecExpand, IO: res.IO, Peak: res.SimulatedPeak}, nil
}

// traceFiles records the sizes of the schedule file and of the final
// checkpoint, and the checkpoint's logged decisions.
func (o *oocStream) traceFiles(path, ckPath string, layer map[string]float64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	layer["tree.bytes"] = float64(fi.Size())
	ci, err := os.Stat(ckPath)
	if err != nil {
		return err
	}
	st, err := ckpt.ReadFile(ckPath)
	if err != nil {
		return fmt.Errorf("reading the final checkpoint: %w", err)
	}
	layer["ckpt.bytes"] = float64(ci.Size())
	layer["ckpt.decisions"] = float64(len(st.Exps))
	return nil
}

// verify reads the schedule back strictly and re-simulates it: n ids, a
// topological order, and a FiF I/O between the lower bound and the
// declared I/O, which must be the same on every repetition.
func (o *oocStream) verify(path string, n, declared int64) error {
	sched, err := readSchedule(path)
	if err != nil {
		return err
	}
	if int64(len(sched)) != n || len(sched) != o.t.N() {
		return fmt.Errorf("schedule has %d ids, wrote %d, tree has %d nodes", len(sched), n, o.t.N())
	}
	sim, err := memsim.IOOf(o.t, o.M, sched)
	if err != nil {
		return err
	}
	if sim > declared || sim < o.lb {
		return fmt.Errorf("simulated I/O %d outside [lower bound %d, declared %d]", sim, o.lb, declared)
	}
	if o.io < 0 {
		o.io = declared
	} else if declared != o.io {
		return fmt.Errorf("declared I/O %d differs from the first schedule's %d", declared, o.io)
	}
	return nil
}

func readSchedule(path string) (repro.TaskSchedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return repro.ReadScheduleStrict(bufio.NewReaderSize(f, 1<<16))
}

// probe times the profile warm and the streaming simulator standalone.
func (o *oocStream) probe(c *config, tr *tracer, layer map[string]float64) (int, int, error) {
	var k check
	timed(tr, "liu.warm", "staircase", layer, func() {
		m := expand.NewMutable(o.t)
		m.EnableProfilesOpts(liu.CacheOptions{MaxResidentBytes: o.budget})
		m.InitialPeaks(runtime.GOMAXPROCS(0))
	})
	sched, err := readSchedule(filepath.Join(c.runDir, "schedule.txt"))
	if err != nil {
		return 0, 0, err
	}
	want, err := memsim.IOOf(o.t, o.M, sched)
	if err != nil {
		return 0, 0, err
	}
	var io int64
	timed(tr, "memsim.stream", "staircase", layer, func() {
		io, _, err = memsim.NewSimulator().RunStream(o.t, o.t.Root(), o.M, sched.Emit, memsim.FiF)
	})
	if err == nil && io != want {
		err = fmt.Errorf("streamed simulation I/O %d differs from Run's %d", io, want)
	}
	k.add("streamed simulation", err)
	return k.attempted, k.failed, nil
}

func (o *oocStream) record(rec map[string]any) {
	rec["nodes"] = o.t.N()
	rec["bound"] = "Mid"
	rec["cache_budget_bytes"] = o.budget
}

func (o *oocStream) close() {}
