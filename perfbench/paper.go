package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro"
	"repro/internal/core"
	"repro/internal/expand"
	"repro/internal/experiments"
	"repro/internal/liu"
	"repro/internal/memsim"
	"repro/internal/postorder"
	"repro/internal/tree"
)

// paperEval is the paper's Section 6 evaluation: the SYNTH and TREES
// datasets at M = Mid, every paper algorithm through repro.Schedule, each
// schedule verified, and each RecExpand schedule executed out of core with
// a file spill store. Instances run one at a time.
type paperEval struct {
	insts []paperInst
	io    []int64 // RecExpand's declared I/O per instance, from the first pass
}

type paperInst struct {
	name  string
	t     *tree.Tree
	M     int64
	synth bool // FullRecExpand runs on SYNTH only, as in the paper
}

const (
	// execUnit is the executor's bytes per weight unit.
	execUnit = 16
	// paperMinPasses is the fewest passes a run makes over the dataset, so
	// that the median over the passes leaves out one slow pass of any
	// instance or schedule.
	paperMinPasses = 3
)

func (p *paperEval) setup(c *config) error {
	sc := experiments.PaperSynth
	tc := experiments.PaperTrees
	if c.smoke {
		sc = experiments.SynthConfig{Count: 6, Nodes: 300}
		tc = experiments.SmallTrees
	}
	sc.Seed, tc.Seed = c.seed, c.seed
	trees, err := experiments.Trees(tc)
	if err != nil {
		return err
	}
	if c.smoke {
		trees = trees[:min(4, len(trees))]
	}
	p.insts = p.insts[:0]
	for _, in := range experiments.Synth(sc) {
		p.insts = append(p.insts, paperInst{in.Name, in.Tree, in.M(core.BoundMid), true})
	}
	for _, in := range trees {
		p.insts = append(p.insts, paperInst{in.Name, in.Tree, in.M(core.BoundMid), false})
	}
	// A run that ends mid-pass then measures a random subset, not the
	// SYNTH prefix of the dataset.
	rand.New(rand.NewSource(c.seed)).Shuffle(len(p.insts), func(i, j int) {
		p.insts[i], p.insts[j] = p.insts[j], p.insts[i]
	})
	p.io = make([]int64, len(p.insts))
	for i := range p.io {
		p.io[i] = -1 // not measured yet
	}
	return nil
}

var paperAlgs = []struct {
	alg   repro.Algorithm
	layer string
}{
	// RecExpand first: the executor can start once its schedule exists.
	{repro.RecExpand, "core.recexpand_s"},
	{repro.OptMinMem, "core.optminmem_s"},
	{repro.PostOrderMinIO, "core.postorderminio_s"},
	{repro.FullRecExpand, "core.fullrecexpand_s"},
}

// measure runs whole passes over the dataset, as many as fit in the time
// and at least paperMinPasses. Every instance and every schedule (one
// algorithm on one instance) is timed in each pass, and the metrics are
// taken over the dataset from each one's median over the passes: a stall
// of the host during one pass then moves no metric, while a change that
// slows an instance in every pass does. The latency samples are
// schedules, not instances: about 1% of the instances are the large 3-D
// grids, so a per-instance p99 fell on the edge between them and the rest
// and jumped between the two from run to run. io_units is RecExpand's I/O
// summed over the dataset; every later pass must reproduce it instance by
// instance. The traced pass reports its layer times and counts per pass.
func (p *paperEval) measure(c *config, tr *tracer) (*phase, error) {
	var gs *goStats
	if tr != nil {
		gs = startGoStats()
	}
	layer := map[string]float64{}
	var k check
	// One row per pass.
	var instT, lat, ttfb [][]float64
	var passes []float64
	for want := 1; len(passes) < want; {
		p0 := now()
		it := make([]float64, len(p.insts))
		var l, f []float64
		for i := range p.insts {
			i0 := now()
			io, err := p.instance(c, tr, &p.insts[i], layer, &l, &f)
			it[i] = since(i0)
			if err == nil && p.io[i] < 0 {
				p.io[i] = io
			} else if err == nil && io != p.io[i] {
				err = fmt.Errorf("RecExpand I/O %d differs from the first pass's %d", io, p.io[i])
			}
			k.add(p.insts[i].name, err)
		}
		instT, lat, ttfb = append(instT, it), append(lat, l), append(ttfb, f)
		passes = append(passes, since(p0))
		if len(passes) == 1 {
			want = max(int(math.Round(c.seconds/passes[0])), 1)
			if !c.smoke {
				want = max(want, paperMinPasses)
			}
		}
	}
	var ioSum int64
	for _, v := range p.io {
		ioSum += max(v, 0) // -1: the instance failed in its first pass
	}
	if gs != nil {
		gs.finish(layer)
		for name, v := range layer {
			if name != "go.heap_peak_mib" {
				layer[name] = v / float64(len(passes))
			}
		}
	}
	instMed, latMed, ttfbMed := passMedians(instT), passMedians(lat), passMedians(ttfb)
	var passS, schedS float64
	for _, v := range instMed {
		passS += v
	}
	for _, v := range ttfbMed {
		schedS += v
	}
	return &phase{
		attempted: k.attempted, failed: k.failed,
		e2e: map[string]float64{
			"instances_per_s": float64(len(p.insts)) / passS,
			"io_units":        float64(ioSum),
			"schedule_s":      schedS,
			"peak_rss_mib":    selfPeakRSSMiB(),
			"p50_ms":          1e3 * median(latMed),
			"p99_ms":          1e3 * quantile(latMed, 0.99),
			"ttfb_p50_ms":     1e3 * median(ttfbMed),
			"ttfb_p99_ms":     1e3 * quantile(ttfbMed, 0.99),
		},
		layer:   layer,
		samples: map[string]any{"instances": len(p.insts), "schedules": len(latMed), "passes": len(passes), "pass_runs_s": passes},
	}, nil
}

// passMedians takes rows of one sample per item, one row per pass, and
// returns each item's median over the passes.
func passMedians(rows [][]float64) []float64 {
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for j := range out {
		for r, row := range rows {
			col[r] = row[j]
		}
		out[j] = median(col)
	}
	return out
}

// instance schedules one instance with every algorithm, verifies each
// schedule and executes RecExpand's. Each schedule adds a latency sample,
// from the call to its verified schedule, and a time-to-schedule sample,
// the call itself: the schedule is materialized, so its first id comes
// with its last. Execution counts in the instance's time, not in the
// schedule's latency. After a failure the instance's remaining schedules
// are not run and count as failed, so every pass has the same samples. It
// returns RecExpand's declared I/O.
func (p *paperEval) instance(c *config, tr *tracer, in *paperInst, layer map[string]float64, lat, ttfb *[]float64) (recIO int64, err error) {
	root := tr.begin("instance", in.name, 0)
	defer tr.end(root)
	var lb int64
	for _, a := range paperAlgs {
		if a.alg == repro.FullRecExpand && !in.synth {
			continue
		}
		if err != nil {
			*lat = append(*lat, failedLatency)
			*ttfb = append(*ttfb, failedLatency)
			continue
		}
		s := tr.begin(a.layer, in.name, root)
		a0 := now()
		res, serr := repro.Schedule(in.t, in.M, a.alg)
		d := since(a0)
		tr.end(s)
		layer[a.layer] += d
		*ttfb = append(*ttfb, d)
		err = serr
		if err == nil && a.alg == repro.RecExpand {
			s := tr.begin("core.io_lower_bound", in.name, root)
			lb = core.IOLowerBound(in.t, in.M)
			tr.end(s)
		}
		var sim int64
		if err == nil {
			sim, err = verifySchedule(tr, root, in, res, lb, layer)
		}
		l := since(a0)
		if err == nil && a.alg == repro.RecExpand {
			recIO = res.IO
			err = execute(c, tr, root, in, res.Schedule, sim, layer)
		}
		if err != nil {
			l = failedLatency
			err = fmt.Errorf("%s: %w", a.alg, err)
		}
		*lat = append(*lat, l)
	}
	if err != nil {
		return 0, err
	}
	return recIO, nil
}

// verifySchedule checks that a schedule is topological and that its FiF
// re-simulation lies between the I/O lower bound and the declared I/O; it
// returns the simulated I/O.
func verifySchedule(tr *tracer, root int, in *paperInst, res *repro.Result, lb int64, layer map[string]float64) (int64, error) {
	s := tr.begin("tree.validate", in.name, root)
	err := tree.Validate(in.t, res.Schedule)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("memsim.fif", in.name, root)
	t0 := now()
	sim, err := memsim.IOOf(in.t, in.M, res.Schedule)
	layer["memsim.fif_s"] += since(t0)
	tr.end(s)
	layer["memsim.steps"] += float64(len(res.Schedule))
	if err != nil {
		return 0, err
	}
	if sim > res.IO || sim < lb {
		return 0, fmt.Errorf("simulated I/O %d outside [lower bound %d, declared %d]", sim, lb, res.IO)
	}
	return sim, nil
}

// execute runs the schedule with real buffers and a file spill store and
// checks that the volume written equals the simulated I/O. Every output
// carries its node id at both ends, so a spilled buffer that comes back
// corrupted or misplaced fails the run.
func execute(c *config, tr *tracer, root int, in *paperInst, sched repro.TaskSchedule, sim int64, layer map[string]float64) error {
	t := in.t
	compute := func(node int, inputs map[int][]byte) ([]byte, error) {
		for ch, b := range inputs {
			if len(b) != int(t.Weight(ch))*execUnit || len(b) > 0 && (b[0] != byte(ch) || b[len(b)-1] != byte(ch)) {
				return nil, fmt.Errorf("input of node %d from child %d came back altered", node, ch)
			}
		}
		out := make([]byte, int(t.Weight(node))*execUnit)
		if len(out) > 0 { // weights may be 0
			out[0], out[len(out)-1] = byte(node), byte(node)
		}
		return out, nil
	}
	s := tr.begin("oocexec.execute", in.name, root)
	t0 := now()
	_, st, err := repro.Execute(t, in.M, sched, repro.ExecConfig{UnitSize: execUnit, SpillDir: c.runDir}, compute)
	layer["oocexec.execute_s"] += since(t0)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	layer["oocexec.units_written"] += float64(st.UnitsWritten)
	layer["oocexec.spills"] += float64(st.Spills)
	if st.UnitsWritten != sim {
		return fmt.Errorf("executor wrote %d units, simulation says %d", st.UnitsWritten, sim)
	}
	return nil
}

// probe times the kernels the facade calls — Liu's MinMem, the best
// postorder, the profile warm, the expansion engine and the streaming
// simulator — standalone, once per instance.
func (p *paperEval) probe(c *config, tr *tracer, layer map[string]float64) (int, int, error) {
	var k check
	for i := range p.insts {
		in := &p.insts[i]
		k.add(in.name+" probe", p.probeInstance(tr, in, p.io[i], layer))
	}
	return k.attempted, k.failed, nil
}

func (p *paperEval) probeInstance(tr *tracer, in *paperInst, recIO int64, layer map[string]float64) error {
	timed(tr, "liu.minmem", in.name, layer, func() { liu.MinMem(in.t) })
	timed(tr, "postorder.minio", in.name, layer, func() { postorder.MinIO(in.t, in.M) })
	timed(tr, "liu.warm", in.name, layer, func() {
		m := expand.NewMutable(in.t)
		m.EnableProfilesOpts(liu.CacheOptions{})
		m.InitialPeaks(runtime.GOMAXPROCS(0))
	})
	opts := []expand.Options{{MaxPerNode: 2}}
	if in.synth {
		opts = append(opts, expand.Options{MaxPerNode: 0})
	}
	var rec *expand.Result
	for _, o := range opts {
		eng := expand.NewEngine()
		res, err := eng.RecExpand(in.t, in.M, o)
		if err != nil {
			return err
		}
		if rec == nil {
			rec = res
		}
		addEngineStats(layer, res, eng.CacheStats())
	}
	if rec.IO != recIO {
		return fmt.Errorf("engine I/O %d differs from repro.Schedule's %d", rec.IO, recIO)
	}
	var io int64
	var err error
	timed(tr, "memsim.stream", in.name, layer, func() {
		io, _, err = memsim.NewSimulator().RunStream(in.t, in.t.Root(), in.M, rec.Schedule.Emit, memsim.FiF)
	})
	if err != nil {
		return err
	}
	if io != rec.SimulatedIO {
		return fmt.Errorf("streamed simulation I/O %d differs from the engine's %d", io, rec.SimulatedIO)
	}
	return nil
}

// timed runs f inside a span named name and adds its time to layer[name+"_s"].
func timed(tr *tracer, name, inst string, layer map[string]float64, f func()) {
	s := tr.begin(name, inst, 0)
	t0 := now()
	f()
	layer[name+"_s"] += since(t0)
	tr.end(s)
}

// addEngineStats folds one engine run's counters into the liu and expand
// layer metrics: counts add up, the cache peak is the largest seen.
func addEngineStats(layer map[string]float64, res *expand.Result, cs liu.CacheStats) {
	layer["expand.expansions"] += float64(res.Expansions)
	if res.CapHit {
		layer["expand.cap_hits"]++
	}
	layer["liu.cache_peak_mib"] = max(layer["liu.cache_peak_mib"], float64(cs.PeakResidentBytes)/(1<<20))
	layer["liu.evictions"] += float64(cs.Evictions)
	layer["liu.evicted_nodes"] += float64(cs.EvictedNodes)
	layer["liu.sliced_profiles"] += float64(cs.SlicedProfiles)
	layer["liu.remats"] += float64(cs.Rematerializations)
	layer["liu.streamed_nodes"] += float64(cs.StreamedNodes)
}

func (p *paperEval) record(rec map[string]any) {
	rec["instances"] = len(p.insts)
	rec["bound"] = "Mid"
	rec["exec_unit_bytes"] = execUnit
}

func (p *paperEval) close() {}
