package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/experiments"
)

// serveMix drives the cmd/schedd daemon, run as its own process, with an
// open loop of seeded Poisson arrivals over at most serveConns
// connections: mostly small SYNTH trees on the sequential engine, a few
// SYNTH forests large enough for the parallel driver, a share of keyed
// requests and re-POSTs of completed keys. Every response is compared
// byte for byte with a stream computed in set-up.
type serveMix struct {
	pool   []poolTree // nSmall small trees, then the large ones
	nSmall int
	reqs   []serveReq
	d      *daemon
	setups int // daemons started so far; each gets its own checkpoint dir
}

const (
	// serveRate is the offered load in requests per second, fixed so that
	// every commit is measured under the same load. Two connections
	// sustained 206-234 req/s in a closed loop on a 2-core Xeon host,
	// measured with half of this mix's share of large requests; this is
	// about a fifth of that. At higher loads queueing amplified the host's
	// own noise (CPU steal) into the percentiles.
	serveRate = 45.0
	// serveMinRequests keeps at least ten latency samples beyond the
	// run's p99.
	serveMinRequests = 1000
	// serveWindow is the number of consecutive requests over which a p99
	// is taken; the reported p99 is the median over the run's windows,
	// so one stall of the host, which delays the requests queued behind
	// it, moves one window and not the metric. A window holds exactly
	// ten large requests, and a run is a whole number of windows.
	serveWindow = 200
	// serveP99LimitMS is the latency limit this commit meets at serveRate.
	serveP99LimitMS = 1000.0
	serveConns      = 2
	serveSmallNodes = 2000
	serveLargeK     = 4
	serveLargeBushy = 3000
	serveLargeFrac  = 0.05
	serveKeyedFrac  = 0.20
	serveRepostFrac = 0.25 // of the keyed requests
	// serveRepostAge is how long before a re-POST its key's first request
	// was due, so the key has completed.
	serveRepostAge = 2.0
	// The pools are large enough that a run's mix of instances, and with
	// it io_units and the large requests' latency, varies little from
	// seed to seed.
	servePoolSmall = 256
	servePoolLarge = 48
	serveWarmup    = 120
	// serveTimeout bounds one request.
	serveTimeout = 60 * time.Second
	// serveMaxLate is how far behind its schedule the load generator may
	// release a request before the run is declared invalid.
	serveMaxLate = 0.050
)

// poolTree is one distinct instance of the request mix with the stream
// the daemon must send for it.
type poolTree struct {
	large bool
	json  []byte // {"parents":[...],"weights":[...]}
	want  []byte // the complete schedule stream, trailer included
	io    int64  // RecExpand's declared I/O
}

type serveReq struct {
	due  float64 // seconds after the load starts
	tree int     // index into pool
	key  string  // idempotency key; "" = anonymous
}

// serveObs is what the client saw of one request, in run seconds.
type serveObs struct {
	due, send, hdr, first, end float64
	large, ok                  bool
}

func (s *serveMix) setup(c *config) error {
	if s.d != nil {
		if _, err := s.d.stop(); err != nil {
			return err
		}
		s.d = nil
	}
	small, bushy, nSmall, nLarge := serveSmallNodes, serveLargeBushy, servePoolSmall, servePoolLarge
	if c.smoke {
		small, bushy, nSmall, nLarge = 300, 1100, 6, 2
	}
	var ins []*core.Instance
	ins = append(ins, experiments.Synth(experiments.SynthConfig{Count: nSmall, Nodes: small, Seed: c.seed})...)
	for i := 0; i < nLarge; i++ {
		in, err := experiments.Forest(serveLargeK, bushy, c.seed*servePoolLarge+int64(i))
		if err != nil {
			return err
		}
		ins = append(ins, in)
	}
	s.pool, s.nSmall = s.pool[:0], nSmall
	for i, in := range ins {
		p := poolTree{large: i >= nSmall}
		var err error
		if p.json, err = json.Marshal(in.Tree); err != nil {
			return err
		}
		var buf bytes.Buffer
		var res *repro.Result
		var runErr error
		M := in.M(core.BoundMid)
		if _, err := repro.WriteSchedule(&buf, func(yield func([]int) bool) bool {
			res, runErr = repro.ScheduleStreamed(in.Tree, M, repro.RecExpand, repro.Tuning{}, yield)
			return runErr == nil
		}); err != nil {
			return fmt.Errorf("ground truth of %s: %w", in.Name, errors.Join(runErr, err))
		}
		p.want, p.io = buf.Bytes(), res.IO
		s.pool = append(s.pool, p)
	}
	s.plan(c, nSmall, nLarge)
	d, err := s.start(c, false)
	if err != nil {
		return err
	}
	s.d = d
	return nil
}

// plan draws the request sequence: a Poisson process conditioned on its
// count, so every run of a seed sends the same number of requests. Each
// block of 1/serveLargeFrac consecutive requests holds exactly one large
// request, and each size class cycles through its pool in a fresh random
// order, so a run's mix does not depend on how the draws fall.
func (s *serveMix) plan(c *config, nSmall, nLarge int) {
	rng := rand.New(rand.NewSource(c.seed))
	n := max(serveMinRequests, int(serveRate*c.seconds))
	n = (n + serveWindow - 1) / serveWindow * serveWindow
	if c.smoke {
		n = 40
	}
	span := float64(n) / serveRate
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = rng.Float64() * span
	}
	sort.Float64s(dues)
	block := int(1 / serveLargeFrac)
	smallNext := cycler(rng, 0, nSmall)
	largeNext := cycler(rng, nSmall, nLarge)
	s.reqs = make([]serveReq, n)
	var keyed []int // requests that opened a key
	largeAt := 0
	for i := range s.reqs {
		if i%block == 0 {
			largeAt = i + rng.Intn(block)
		}
		r := serveReq{due: dues[i]}
		if i == largeAt {
			r.tree = largeNext()
		} else {
			r.tree = smallNext()
		}
		if rng.Float64() < serveKeyedFrac {
			// Keys old enough to have completed form a prefix of keyed.
			old := sort.Search(len(keyed), func(j int) bool { return s.reqs[keyed[j]].due > r.due-serveRepostAge })
			if old > 0 && rng.Float64() < serveRepostFrac {
				first := s.reqs[keyed[rng.Intn(old)]]
				r.tree, r.key = first.tree, first.key
			} else {
				r.key = fmt.Sprintf("k%d-%d", c.seed, i)
				keyed = append(keyed, i)
			}
		}
		s.reqs[i] = r
	}
}

// cycler returns the pool indexes base..base+n-1 in an endless sequence
// of random permutations.
func cycler(rng *rand.Rand, base, n int) func() int {
	var perm []int
	return func() int {
		if len(perm) == 0 {
			perm = rng.Perm(n)
		}
		i := perm[0]
		perm = perm[1:]
		return base + i
	}
}

// start launches a daemon with a fresh checkpoint directory and warms it
// up with serveWarmup requests of the run's mix over both connections, a
// fifth of them keyed, until its heap, connections and journal reach
// their steady state.
func (s *serveMix) start(c *config, gctrace bool) (*daemon, error) {
	s.setups++
	dir := filepath.Join(c.runDir, fmt.Sprintf("schedd-%d", s.setups))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := startDaemon(filepath.Join(c.buildDir, "bin", "schedd"), dir, gctrace)
	if err != nil {
		return nil, err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	var failed atomic.Int64
	var wg sync.WaitGroup
	block := int(1 / serveLargeFrac)
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := w; i < serveWarmup; i += serveConns {
				r := serveReq{tree: i % s.nSmall}
				if i%block == 0 {
					r.tree = s.nSmall + i/block%(len(s.pool)-s.nSmall)
				}
				if i%5 == 0 {
					r.key = fmt.Sprintf("warm-%d", i)
				}
				if o := s.send(client, d.url, r, now(), &buf); !o.ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		d.stop()
		return nil, fmt.Errorf("%d warm-up requests failed", n)
	}
	return d, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: serveTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		},
	}
}

func (s *serveMix) measure(c *config, tr *tracer) (*phase, error) {
	if tr != nil {
		// The traced pass gets its own daemon, which also prints its
		// garbage-collector trace.
		d, err := s.start(c, true)
		if err != nil {
			return nil, err
		}
		s.d = d
	}
	d := s.d
	before, err := d.statz()
	if err != nil {
		return nil, err
	}
	gcBefore := d.gcSnapshot()
	obs, late := s.load(d.url)
	gcAfter := d.gcSnapshot()
	after, err := d.statz()
	if err != nil {
		return nil, err
	}
	rss, err := d.stop()
	s.d = nil
	if err != nil {
		return nil, err
	}
	if lm := quantile(late, 1); lm > serveMaxLate {
		return nil, fmt.Errorf("run invalid: the load generator released a request %.1f ms after it was due", 1e3*lm)
	}

	var lat, ttfb, service []float64
	var k check
	var ioSum int64
	first, last := obs[0].due, obs[0].due
	for i, o := range obs {
		ioSum += s.pool[s.reqs[i].tree].io
		var err error
		if !o.ok {
			err = fmt.Errorf("not served as expected")
			o.end, o.first = o.due+failedLatency, o.due+failedLatency
		}
		k.add(fmt.Sprintf("request %d", i), err)
		lat = append(lat, o.end-o.due)
		ttfb = append(ttfb, o.first-o.due)
		service = append(service, o.end-o.send)
		last = max(last, o.end)
	}
	p99 := windowP99(lat)
	ph := &phase{
		attempted: k.attempted, failed: k.failed,
		e2e: map[string]float64{
			"instances_per_s": float64(k.attempted-k.failed) / (last - first),
			"io_units":        float64(ioSum),
			"schedule_s":      median(service),
			"peak_rss_mib":    rss,
			"p50_ms":          1e3 * median(lat),
			"p99_ms":          1e3 * p99,
			"ttfb_p50_ms":     1e3 * median(ttfb),
			"ttfb_p99_ms":     1e3 * windowP99(ttfb),
		},
		layer: map[string]float64{},
		samples: map[string]any{
			"requests":              len(obs),
			"generator_late_max_ms": 1e3 * quantile(late, 1),
			"run_p99_ms":            1e3 * quantile(lat, 0.99),
			"meets_p99_limit":       1e3*p99 <= serveP99LimitMS,
		},
	}
	if tr != nil {
		s.layers(tr, obs, before, after, gcBefore, gcAfter, ph.layer)
	}
	return ph, nil
}

// windowP99 is the median over consecutive windows of serveWindow
// requests, in due order, of each window's p99; with fewer requests than
// a window it is the p99 of all of them.
func windowP99(xs []float64) float64 {
	var ps []float64
	for i := 0; i+serveWindow <= len(xs); i += serveWindow {
		ps = append(ps, quantile(xs[i:i+serveWindow], 0.99))
	}
	if len(ps) == 0 {
		return quantile(xs, 0.99)
	}
	return median(ps)
}

// load releases every request at its due time into a FIFO that
// serveConns workers drain, and returns what each request saw and how
// late the generator released each one.
func (s *serveMix) load(url string) ([]serveObs, []float64) {
	client := newClient()
	defer client.CloseIdleConnections()
	n := len(s.reqs)
	obs := make([]serveObs, n)
	late := make([]float64, n)
	queue := make(chan int, n) // sized to the number of sends: release never blocks
	start := now() + 0.05
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i, r := range s.reqs {
			if d := start + r.due - now(); d > 0 {
				time.Sleep(time.Duration(d * float64(time.Second)))
			}
			late[i] = now() - (start + r.due)
			queue <- i
		}
	}()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := range queue {
				obs[i] = s.send(client, url, s.reqs[i], start+s.reqs[i].due, &buf)
			}
		}()
	}
	wg.Wait()
	return obs, late
}

// send makes one request and checks the response: status 200, no error
// trailer, the declared I/O, and a body byte-identical to the expected
// stream, which ends with the "# end count=" trailer.
//
// buf is the caller's reusable response buffer.
func (s *serveMix) send(client *http.Client, url string, r serveReq, due float64, buf *[]byte) serveObs {
	p := &s.pool[r.tree]
	head := `{"mid":true`
	if r.key != "" {
		head += `,"idempotency_key":"` + r.key + `"`
	}
	head += `,"tree":`
	body := func() io.Reader {
		return io.MultiReader(strings.NewReader(head), bytes.NewReader(p.json), strings.NewReader("}"))
	}
	o := serveObs{due: due, large: p.large}
	req, err := http.NewRequest(http.MethodPost, url+"/schedule", body())
	if err != nil {
		return o
	}
	req.ContentLength = int64(len(head) + len(p.json) + 1)
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(body()), nil }
	req.Header.Set("Content-Type", "application/json")
	o.send = now()
	resp, err := client.Do(req)
	o.hdr = now()
	if err != nil {
		o.first, o.end = o.hdr, o.hdr
		return o
	}
	defer resp.Body.Close()
	got := (*buf)[:0]
	var rerr error
	for {
		if len(got) == cap(got) {
			got = append(got, 0)[:len(got)]
		}
		n, err := resp.Body.Read(got[len(got):cap(got)])
		if n > 0 && o.first == 0 {
			o.first = now()
		}
		got = got[:len(got)+n]
		if err != nil {
			if err != io.EOF {
				rerr = err
			}
			break
		}
	}
	*buf = got
	o.end = now()
	if o.first == 0 {
		o.first = o.end
	}
	o.ok = rerr == nil && resp.StatusCode == http.StatusOK &&
		resp.Trailer.Get("X-Schedd-Error") == "" &&
		resp.Trailer.Get("X-Schedd-Io") == strconv.FormatInt(p.io, 10) &&
		bytes.Equal(got, p.want)
	return o
}

// layers fills the schedd and Go runtime metrics of the traced pass and
// records one span tree per request.
func (s *serveMix) layers(tr *tracer, obs []serveObs, before, after *statz, gc0, gc1 gcTrace, layer map[string]float64) {
	var queue, admit, compute, stream, small, large []float64
	for i, o := range obs {
		inst := fmt.Sprintf("request-%d", i)
		root := tr.add("request", inst, 0, o.due, o.end)
		tr.add("schedd.queue", inst, root, o.due, o.send)
		tr.add("schedd.admit", inst, root, o.send, o.hdr)
		tr.add("schedd.compute", inst, root, o.hdr, o.first)
		tr.add("schedd.stream", inst, root, o.first, o.end)
		queue = append(queue, o.send-o.due)
		admit = append(admit, o.hdr-o.send)
		compute = append(compute, o.first-o.hdr)
		stream = append(stream, o.end-o.first)
		if o.large {
			large = append(large, o.end-o.send)
		} else {
			small = append(small, o.end-o.send)
		}
	}
	ms := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return 1e3 * quantile(xs, q)
	}
	layer["schedd.queue_ms.p99"] = ms(queue, 0.99)
	layer["schedd.admit_ms.p50"] = ms(admit, 0.5)
	layer["schedd.admit_ms.p99"] = ms(admit, 0.99)
	layer["schedd.compute_ms.p50"] = ms(compute, 0.5)
	layer["schedd.compute_ms.p99"] = ms(compute, 0.99)
	layer["schedd.stream_ms.p50"] = ms(stream, 0.5)
	layer["schedd.stream_ms.p99"] = ms(stream, 0.99)
	layer["schedd.service_ms.small.p50"] = ms(small, 0.5)
	layer["schedd.service_ms.large.p50"] = ms(large, 0.5)
	layer["schedd.broker.granted"] = float64(after.Broker.Granted - before.Broker.Granted)
	layer["schedd.broker.rejected"] = float64(after.Broker.Rejected - before.Broker.Rejected)
	layer["schedd.broker.peak_used_mib"] = float64(after.Broker.PeakUsed) / (1 << 20)
	layer["schedd.journal.begun"] = float64(after.Journal.Begun - before.Journal.Begun)
	layer["schedd.journal.reused"] = float64(after.Journal.Reused - before.Journal.Reused)
	layer["schedd.served"] = float64(after.Serving.Served - before.Serving.Served)
	layer["schedd.errored"] = float64(after.Serving.Errored - before.Serving.Errored)
	layer["schedd.resumed"] = float64(after.Serving.Resumed - before.Serving.Resumed)
	layer["schedd.rejected"] = float64(after.rejected() - before.rejected())
	layer["go.gc_cycles"] = float64(gc1.cycles - gc0.cycles)
	layer["go.gc_pause_ms"] = gc1.pauseMS - gc0.pauseMS
	layer["go.heap_peak_mib"] = gc1.heapPeakMiB
}

// probe has nothing to add: the daemon's layers are timed from the client.
func (s *serveMix) probe(*config, *tracer, map[string]float64) (int, int, error) { return 0, 0, nil }

func (s *serveMix) record(rec map[string]any) {
	var large, keyed int
	seen := map[string]bool{}
	reposts := 0
	for _, r := range s.reqs {
		if s.pool[r.tree].large {
			large++
		}
		if r.key != "" {
			keyed++
			if seen[r.key] {
				reposts++
			}
			seen[r.key] = true
		}
	}
	rec["offered_rate_per_s"] = serveRate
	rec["requests"] = len(s.reqs)
	rec["large_requests"] = large
	rec["keyed_requests"] = keyed
	rec["reposts"] = reposts
	rec["connections"] = serveConns
	rec["p99_limit_ms"] = serveP99LimitMS
	rec["cache_budget"] = "per-request lease from the daemon's default 1 GiB budget"
	rec["bound"] = "Mid"
}

func (s *serveMix) close() {
	if s.d != nil {
		s.d.stop()
	}
}

// statz is the part of the daemon's /statz document the benchmark reads.
type statz struct {
	Broker struct {
		Granted, Rejected, PeakUsed int64
	} `json:"broker"`
	Serving struct {
		Served, Errored, Resumed int64
		Rejected                 map[string]int64
	} `json:"serving"`
	Journal struct {
		Begun, Reused int64
	} `json:"journal"`
}

func (z *statz) rejected() int64 {
	var n int64
	for _, v := range z.Serving.Rejected {
		n += v
	}
	return n
}

// daemon is a running cmd/schedd process. Its standard error (a log line
// per request, and the gctrace lines when asked for) goes to a file, so
// draining it costs the load process nothing while requests run.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr string // path of the standard-error file
	drain  sync.WaitGroup
}

// gcTrace sums the daemon's GODEBUG=gctrace=1 lines.
type gcTrace struct {
	cycles      int
	pauseMS     float64 // stop-the-world phases, wall clock
	heapPeakMiB float64 // over the daemon's life, warm-up included
}

func startDaemon(bin, dir string, gctrace bool) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-checkpoint-dir", dir)
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	// The daemon must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, stderr: dir + ".stderr"}
	errFile, err := os.Create(d.stderr)
	if err != nil {
		return nil, err
	}
	defer errFile.Close() // the child holds its own descriptor
	cmd.Stderr = errFile
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	d.drain.Add(1)
	go func() {
		defer d.drain.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("schedd did not announce its address")
	}
}

// gcSnapshot sums the complete gctrace lines the daemon has written so
// far.
func (d *daemon) gcSnapshot() gcTrace {
	var g gcTrace
	data, err := os.ReadFile(d.stderr)
	if err != nil {
		return g
	}
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		data = data[:i]
	}
	for _, line := range strings.Split(string(data), "\n") {
		g.add(line)
	}
	return g
}

// add folds in one gctrace line: "gc 7 @1.2s 3%: 0.02+1.5+0.01 ms clock,
// ..., 40->41->20 MB, ..."; other lines are ignored.
func (g *gcTrace) add(line string) {
	if !strings.HasPrefix(line, "gc ") {
		return
	}
	_, rest, ok := strings.Cut(line, ": ")
	if !ok {
		return
	}
	fields := strings.Split(rest, ", ")
	if len(fields) < 3 {
		return
	}
	clock := strings.Split(strings.TrimSuffix(fields[0], " ms clock"), "+")
	heap := strings.Split(strings.TrimSuffix(fields[2], " MB"), "->")
	if len(clock) != 3 || len(heap) != 3 {
		return
	}
	stw1, err1 := strconv.ParseFloat(clock[0], 64)
	stw2, err2 := strconv.ParseFloat(clock[2], 64)
	h0, err3 := strconv.ParseFloat(heap[0], 64)
	h1, err4 := strconv.ParseFloat(heap[1], 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return
	}
	g.cycles++
	g.pauseMS += stw1 + stw2
	g.heapPeakMiB = max(g.heapPeakMiB, h0, h1)
}

func (d *daemon) statz() (*statz, error) {
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(d.url + "/statz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var z statz
	if err := json.NewDecoder(resp.Body).Decode(&z); err != nil {
		return nil, fmt.Errorf("decoding /statz: %w", err)
	}
	return &z, nil
}

// stop drains the daemon with SIGTERM (SIGKILL if it hangs), waits for it
// and returns its resident high-water in MiB.
func (d *daemon) stop() (float64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		d.drain.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
	}
	err := d.cmd.Wait()
	var rss float64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return rss, fmt.Errorf("schedd: %w", err)
	}
	return rss, nil
}
