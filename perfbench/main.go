// Command perfbench is the repository benchmark. One run sets up one
// workload, measures it for a fixed time from outside the program (through
// the repro facade, the cmd/schedd binary and the internal modules'
// public functions), checks every output, and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1176, "failed": 0, "metrics": {"setup_s": {"value": 2.9, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run measures the workload twice, untraced and then traced, runs the
// standalone layer probes, writes its spans under the build directory and
// reports the per-layer metrics plus the tracing overhead. run.sh builds
// and starts this program; README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// holdoutSeed is the seed kept for checking a change on inputs that were
// not used while the change was written.
const holdoutSeed = 7919

// failedLatency is the latency, in seconds, a failed operation counts as:
// slower than any limit.
const failedLatency = 60.0

// setupRepeats is how many times a run builds its set-up state; setup_s is
// the median, which keeps one slow build from moving the metric.
const setupRepeats = 3

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of each workload sees (README.md says
// what each means per workload). Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"instances_per_s", "1/s"},
	{"io_units", "units"},
	{"schedule_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ttfb_p50_ms", "ms"},
	{"ttfb_p99_ms", "ms"},
}

// perLayer are the metrics of the traced run. A layer a workload does not
// reach reports 0.
var perLayer = []metricDef{
	{"core.optminmem_s", "s"},
	{"core.postorderminio_s", "s"},
	{"core.recexpand_s", "s"},
	{"core.fullrecexpand_s", "s"},
	{"liu.minmem_s", "s"},
	{"liu.warm_s", "s"},
	{"liu.cache_peak_mib", "MiB"},
	{"liu.evictions", "count"},
	{"liu.evicted_nodes", "count"},
	{"liu.sliced_profiles", "count"},
	{"liu.remats", "count"},
	{"liu.streamed_nodes", "count"},
	{"expand.expansions", "count"},
	{"expand.cap_hits", "count"},
	{"expand.to_first_segment_s", "s"},
	{"expand.emit_s", "s"},
	{"memsim.fif_s", "s"},
	{"memsim.steps", "count"},
	{"memsim.stream_s", "s"},
	{"postorder.minio_s", "s"},
	{"oocexec.execute_s", "s"},
	{"oocexec.units_written", "units"},
	{"oocexec.spills", "count"},
	{"tree.write_s", "s"},
	{"tree.bytes", "bytes"},
	{"ckpt.bytes", "bytes"},
	{"ckpt.decisions", "count"},
	{"schedd.queue_ms.p99", "ms"},
	{"schedd.admit_ms.p50", "ms"},
	{"schedd.admit_ms.p99", "ms"},
	{"schedd.compute_ms.p50", "ms"},
	{"schedd.compute_ms.p99", "ms"},
	{"schedd.stream_ms.p50", "ms"},
	{"schedd.stream_ms.p99", "ms"},
	{"schedd.service_ms.small.p50", "ms"},
	{"schedd.service_ms.large.p50", "ms"},
	{"schedd.broker.granted", "count"},
	{"schedd.broker.rejected", "count"},
	{"schedd.broker.peak_used_mib", "MiB"},
	{"schedd.journal.begun", "count"},
	{"schedd.journal.reused", "count"},
	{"schedd.served", "count"},
	{"schedd.errored", "count"},
	{"schedd.resumed", "count"},
	{"schedd.rejected", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_peak_mib", "MiB"},
	{"trace.spans", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead.instances_per_s", "1/s"},
	{"trace.overhead.io_units", "units"},
	{"trace.overhead.schedule_s", "s"},
	{"trace.overhead.peak_rss_mib", "MiB"},
	{"trace.overhead.p50_ms", "ms"},
	{"trace.overhead.p99_ms", "ms"},
	{"trace.overhead.ttfb_p50_ms", "ms"},
	{"trace.overhead.ttfb_p99_ms", "ms"},
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	buildDir string // holds bin/schedd; the run's scratch and traces go below it
	runDir   string // this run's scratch directory, removed at exit
}

// phase is what one measured pass over a workload produced.
type phase struct {
	attempted, failed int
	e2e               map[string]float64 // every endToEnd metric except setup_s
	layer             map[string]float64 // per-layer values (traced pass only)
	samples           map[string]any     // sample counts and raw timings for the run record
}

// workload sets up once per run and measures one phase per call. A traced
// run calls measure twice (untraced, then traced) and probe once.
type workload interface {
	// setup builds the inputs; it is called setupRepeats times.
	setup(c *config) error
	// measure runs the measured phase; tr is nil when untraced.
	measure(c *config, tr *tracer) (*phase, error)
	// probe runs the standalone layer probes of the traced run.
	probe(c *config, tr *tracer, layer map[string]float64) (attempted, failed int, err error)
	// record adds the workload's settings to the run record.
	record(rec map[string]any)
	// close releases what setup started.
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper-eval":
		return &paperEval{}, nil
	case "ooc-stream":
		return &oocStream{}, nil
	case "serve-mix":
		return &serveMix{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-eval, ooc-stream or serve-mix)", name)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var c config
	var traceFlag int
	fs.StringVar(&c.workload, "workload", "", "paper-eval, ooc-stream or serve-mix")
	fs.Int64Var(&c.seed, "seed", 1, fmt.Sprintf("input seed (holdout seed: %d)", holdoutSeed))
	fs.Float64Var(&c.seconds, "seconds", 20, "length of the measured phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.BoolVar(&c.smoke, "smoke", false, "tiny inputs: same code paths, seconds instead of minutes")
	fs.StringVar(&c.buildDir, "build-dir", ".bench_build", "directory holding bin/schedd; scratch files and traces go below it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if c.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", c.seconds)
	}
	c.trace = traceFlag == 1
	w, err := newWorkload(c.workload)
	if err != nil {
		return err
	}
	if c.buildDir, err = filepath.Abs(c.buildDir); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(c.buildDir, "runs"), 0o755); err != nil {
		return err
	}
	if c.runDir, err = os.MkdirTemp(filepath.Join(c.buildDir, "runs"), c.workload+"-"); err != nil {
		return err
	}
	defer os.RemoveAll(c.runDir)
	defer w.close()

	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		t0 := now()
		if err := w.setup(&c); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, since(t0))
	}
	setupS := median(setups)

	// Start the measured phase with no dirty file data left over from the
	// build or the set-up: the daemon's and the stream's fsyncs would
	// otherwise wait for it.
	syscall.Sync()
	steal0 := cpuSteal()
	base, err := w.measure(&c, nil)
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	stealFrac := cpuSteal().since(steal0)
	attempted, failed := base.attempted, base.failed
	metrics := map[string]float64{"setup_s": setupS}
	for k, v := range base.e2e {
		metrics[k] = v
	}
	defs := endToEnd
	if c.trace {
		tr := &tracer{}
		syscall.Sync()
		traced, err := w.measure(&c, tr)
		if err != nil {
			return fmt.Errorf("traced measure: %w", err)
		}
		attempted += traced.attempted
		failed += traced.failed
		layer := traced.layer
		a, f, err := w.probe(&c, tr, layer)
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		attempted += a
		failed += f
		for _, d := range endToEnd[1:] {
			layer["trace.overhead."+d.name] = traced.e2e[d.name] - base.e2e[d.name]
		}
		layer["trace.spans"] = float64(tr.len())
		layer["trace.coverage"] = tr.coverage()
		path := filepath.Join(c.buildDir, "traces", fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
		if err := tr.writeFile(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
		metrics = layer
		defs = perLayer
	}

	rec := runRecord(&c)
	w.record(rec)
	rec["setup_runs_s"] = setups
	rec["samples"] = base.samples
	rec["cpu_steal_frac"] = stealFrac
	rec["attempted"] = attempted
	rec["failed"] = failed
	rec["fail_frac"] = float64(failed) / float64(max(attempted, 1))
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "run: %s\n", recJSON)
	return printResult(stdout, defs, metrics, attempted, failed)
}

// printResult prints a readable table and then the result object, which
// must be the last line of standard output.
func printResult(stdout io.Writer, defs []metricDef, metrics map[string]float64, attempted, failed int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v := metrics[d.name] // a layer the workload does not reach reports 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			v = 0
		}
		out[d.name] = value{v, d.unit}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(stdout, "%-34s %14.6g %s\n", "fail_frac", float64(failed)/float64(max(attempted, 1)), "ratio")
	if len(missing) > 0 {
		return fmt.Errorf("metrics without a finite value: %s", strings.Join(missing, ", "))
	}
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(res))
	return err
}

// check counts one verified operation; a failed check is reported on
// standard error and counted, never skipped.
type check struct {
	attempted, failed int
}

func (k *check) add(what string, err error) {
	k.attempted++
	if err != nil {
		k.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s: %v\n", what, err)
	}
}
