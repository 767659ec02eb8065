package schedd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/tree"
)

// Config carries the serving policy of a Server. Zero fields take the
// documented defaults; Budget is mandatory.
type Config struct {
	// Budget is the global resident-byte budget the lease broker
	// partitions across concurrent requests. Mandatory, must be positive.
	Budget int64
	// Engines bounds concurrent expansions (the core.Runner pool size);
	// 0 means 4.
	Engines int
	// Workers is the shard count of each engine's initial profile warm
	// (core.Runner.Workers); 0 auto-selects.
	Workers int
	// MaxTreeBytes bounds the request body; 0 means 64 MiB.
	MaxTreeBytes int64
	// DefaultTimeout bounds a request's run+stream when the client sets
	// no timeout_ms; 0 means 10 minutes.
	DefaultTimeout time.Duration
	// MaxWait caps the client-requested admission wait (wait_ms); 0
	// means 30 seconds.
	MaxWait time.Duration
	// CheckpointDir, when non-empty, arms per-request durable
	// checkpoints for the expansion heuristics (req-<id>.ckpt for
	// anonymous requests, key-<hash>.ckpt for idempotent ones), so a
	// drain can cut a request short and leave a resumable file behind.
	// The idempotency journal lives in the same directory; with no
	// directory the journal is memory-only.
	CheckpointDir string
	// WriteTimeout bounds each response write: a client that takes longer
	// than this to absorb a write is sealed — its engine is cancelled at
	// the next quiescent point, the armed checkpoint is flushed, and the
	// stream ends with the truncation trailer — so a stalled reader
	// becomes a resumable request instead of a stuck engine. 0 disables.
	WriteTimeout time.Duration
	// DrainGrace is how long Drain lets in-flight requests finish before
	// cancelling them; 0 means 5 seconds.
	DrainGrace time.Duration
	// Logger receives one structured line per request; nil means
	// slog.Default().
	Logger *slog.Logger
}

// withDefaults resolves the zero-value policy knobs.
func (c Config) withDefaults() Config {
	if c.Engines == 0 {
		c.Engines = 4
	}
	if c.MaxTreeBytes == 0 {
		c.MaxTreeBytes = 64 << 20
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Minute
	}
	if c.MaxWait == 0 {
		c.MaxWait = 30 * time.Second
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the scheduling service: admission control in front of a
// bounded engine pool, streaming schedules back over HTTP. Construct with
// NewServer, expose via Handler, shut down via Drain.
type Server struct {
	cfg     Config
	broker  *Broker
	pool    *enginePool
	journal *Journal
	log     *slog.Logger

	// hardCtx is cancelled by Drain after the grace period: every
	// in-flight request context is derived from the client context AND
	// this one, so a hard drain stops engines at their next quiescent
	// point (flushing armed checkpoints on the way out).
	hardCtx    context.Context
	hardCancel context.CancelFunc

	nextID atomic.Uint64

	mu       sync.Mutex
	draining bool
	inflight int
	served   int64
	errored  int64
	panics   int64
	resumed  int64
	sealed   int64
	rejected map[string]int64
	// ewmaServe is the exponentially-weighted mean duration (seconds) of
	// successfully served requests — the per-round unit of the Retry-After
	// estimate on 429.
	ewmaServe float64

	// testGate, when set, is called while the budget lease is held and
	// before the engine runs — the deterministic overload hook: tests
	// block K requests here with all leases held, fire the next wave,
	// and assert exact admission counts with no scheduling luck involved.
	testGate func()
	// testSegment, when set, is called before each streamed segment is
	// written — the deterministic drain hook: tests hold a request at
	// this engine quiescent point mid-stream, trigger Drain, and release,
	// so truncation and checkpoint flushing are asserted without racing
	// the engine or the socket buffers.
	testSegment func(seg int)
}

// NewServer builds a Server over the given policy.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	broker, err := NewBroker(cfg.Budget)
	if err != nil {
		return nil, err
	}
	journal, err := NewJournal(cfg.CheckpointDir)
	if err != nil {
		return nil, err
	}
	hardCtx, hardCancel := context.WithCancel(context.Background())
	return &Server{
		cfg:        cfg,
		broker:     broker,
		pool:       newEnginePool(cfg.Engines, cfg.Workers),
		journal:    journal,
		log:        cfg.Logger,
		hardCtx:    hardCtx,
		hardCancel: hardCancel,
		rejected:   make(map[string]int64),
	}, nil
}

// Broker exposes the server's lease broker for inspection (stats and
// accounting assertions).
func (s *Server) Broker() *Broker { return s.broker }

// Journal exposes the server's idempotency journal for inspection.
func (s *Server) Journal() *Journal { return s.journal }

// Handler returns the service's HTTP routes: POST /schedule, GET
// /healthz, GET /readyz, GET /statz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /schedule", s.handleSchedule)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statz", s.handleStatz)
	return mux
}

// ServingStats is a snapshot of the server's request accounting,
// complementing BrokerStats with outcome counters.
type ServingStats struct {
	// Served counts requests that streamed a complete schedule; Errored
	// counts admitted requests that failed mid-run or mid-stream; Panics
	// counts contained handler panics.
	Served, Errored, Panics int64
	// Resumed counts requests that continued earlier work (a non-zero
	// resume_from or a validated keyed checkpoint); Sealed counts streams
	// cut short by the per-write deadline (slow-client protection).
	Resumed, Sealed int64
	// Rejected counts pre-admission rejections by cause: "busy" (429),
	// "oversize" (413), "invalid" (400/422), "draining" (503),
	// "conflict" (idempotency key reuse, 409), "fault" (injected lease
	// failure, 503).
	Rejected map[string]int64
	// InFlight is the number of requests currently admitted; Draining
	// reports whether admission is closed.
	InFlight int
	// Draining reports whether the server has stopped admitting.
	Draining bool
}

// Stats returns a consistent snapshot of the serving counters.
func (s *Server) Stats() ServingStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	rej := make(map[string]int64, len(s.rejected))
	for k, v := range s.rejected {
		rej[k] = v
	}
	return ServingStats{
		Served: s.served, Errored: s.errored, Panics: s.panics,
		Resumed: s.resumed, Sealed: s.sealed,
		Rejected: rej, InFlight: s.inflight, Draining: s.draining,
	}
}

// reject tallies a pre-admission rejection and writes its status line.
func (s *Server) reject(w http.ResponseWriter, status int, cause, msg string) {
	s.mu.Lock()
	s.rejected[cause]++
	s.mu.Unlock()
	http.Error(w, msg, status)
}

// enter admits one request past the draining gate, or reports failure.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// leave retires one admitted request with its outcome.
func (s *Server) leave(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if err != nil {
		s.errored++
	} else {
		s.served++
	}
}

// handleSchedule is the serving path: validate, lease, run, stream. Any
// panic below it — handler bug, engine bug not already contained by the
// expand worker recovery — is caught here and contained to this request.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.mu.Lock()
			s.panics++
			s.mu.Unlock()
			s.log.Error("schedd: contained handler panic",
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			// If the schedule stream already started this write is a
			// no-op and the truncated stream tells the client.
			http.Error(w, "internal error", http.StatusInternalServerError)
		}
	}()
	if faultinject.Fire(faultinject.HandlerPanic) {
		panic(faultinject.ErrHandlerPanic)
	}
	defer drainBody(r.Body)

	if !s.enter() {
		s.reject(w, http.StatusServiceUnavailable, "draining", "schedd: draining, not admitting")
		return
	}
	var outcome error
	defer func() { s.leave(outcome) }()
	outcome = s.serve(w, r)
}

// serve runs the admitted request end to end and returns its outcome for
// the serving counters.
func (s *Server) serve(w http.ResponseWriter, r *http.Request) error {
	id := s.nextID.Add(1)
	start := time.Now()

	req, t, err := ParseRequest(r, s.cfg.MaxTreeBytes)
	if err != nil {
		s.reject(w, http.StatusBadRequest, "invalid", err.Error())
		return err
	}
	cost, err := req.leaseCost(t.N())
	if err != nil {
		s.reject(w, http.StatusBadRequest, "invalid", err.Error())
		return err
	}

	// Admission: one lease of cost bytes, waiting at most the declared
	// wait_ms (capped by policy); wait_ms=0 sheds load immediately.
	lease, qwait, err := s.acquire(r.Context(), req, cost)
	if err != nil {
		s.rejectLease(w, err, cost)
		return err
	}
	defer lease.Release()
	if s.testGate != nil {
		s.testGate()
	}

	// The request context: client disconnect, the per-request timeout,
	// the server's hard-drain signal and the write-deadline seal all
	// cancel the engine at its next quiescent point.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	stopHard := context.AfterFunc(s.hardCtx, cancel)
	defer stopHard()

	// Resolve the algorithm and memory bound inside the lease: the mid
	// bound needs the instance's Liu peak, which is the expensive analysis
	// admission deferred — and the idempotency fingerprint is over the
	// RESOLVED request, so resolution must precede the journal binding.
	alg := req.algorithm()
	M := req.M
	if req.Mid {
		M = core.NewInstance(req.Name, t).M(core.BoundMid)
	} else if lb := t.MaxWBar(); M < lb {
		err = fmt.Errorf("schedd: m=%d is below the instance lower bound %d (no schedule exists)", M, lb)
		s.reject(w, http.StatusUnprocessableEntity, "invalid", err.Error())
		return err
	}
	ckptArmed := s.cfg.CheckpointDir != "" && (alg == core.RecExpand || alg == core.FullRecExpand)

	// Idempotency binding: claim the key (single-flight — a concurrent
	// duplicate waits here and then observes this attempt's journal entry
	// and checkpoint), verify the fingerprint, and durably record the
	// binding BEFORE any schedule byte is written, so a kill mid-stream
	// leaves a resumable record behind.
	keyed := req.IdempotencyKey != ""
	var bind *Binding
	var fp ReqFingerprint
	var skip int64
	ckptPath := ""
	resumeFrom := ""
	if keyed {
		fp = ReqFingerprint{
			TreeHash:  ckpt.HashTree(t.Parents(), t.Weights()),
			N:         int64(t.N()),
			M:         M,
			Algorithm: string(alg),
		}
		bind, err = s.journal.Begin(ctx, req.IdempotencyKey, fp)
		if err != nil {
			if errors.Is(err, ErrKeyConflict) {
				s.reject(w, http.StatusConflict, "conflict", err.Error())
			} else {
				s.reject(w, http.StatusServiceUnavailable, "busy", err.Error())
			}
			return err
		}
		defer bind.Close()
		skip = req.ResumeFrom
		if ckptArmed {
			// Keyed requests share one stable checkpoint path across
			// attempts, and the file is validated against the fingerprint
			// BEFORE headers commit: a stale or corrupt checkpoint must
			// degrade to a fresh computation here, never to an engine
			// mismatch error after the 200 is on the wire.
			ckptPath = s.journal.CkptPathFor(req.IdempotencyKey)
			if preflightCkpt(ckptPath, fp, alg) {
				resumeFrom = ckptPath
			}
		}
		ent := &Entry{FP: fp, CkptPath: ckptPath}
		if bind.Entry != nil {
			ent.Committed = bind.Entry.Committed
			ent.Complete = bind.Entry.Complete
		}
		if err := bind.Commit(ent); err != nil {
			err = fmt.Errorf("schedd: recording journal entry: %w", err)
			s.reject(w, http.StatusServiceUnavailable, "busy", err.Error())
			return err
		}
	} else if ckptArmed {
		ckptPath = filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("req-%d.ckpt", id))
	}
	resumed := skip > 0 || resumeFrom != ""
	if resumed {
		s.mu.Lock()
		s.resumed++
		s.mu.Unlock()
	}

	rn, err := s.pool.get(ctx)
	if err != nil {
		err = fmt.Errorf("schedd: waiting for an engine: %w", err)
		s.reject(w, http.StatusServiceUnavailable, "busy", err.Error())
		return err
	}
	defer s.pool.put(rn)
	engineWait := time.Since(start) - qwait

	rn.CacheBudget = lease.Cost()
	rn.Ctx = ctx
	rn.CheckpointPath = ckptPath
	rn.ResumeFrom = resumeFrom

	// Commit to 200: everything rejectable is checked; what remains are
	// run/stream failures, reported by the crash-evident trailer of the
	// schedule stream plus the X-Schedd-Error HTTP trailer.
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("X-Schedd-Request-Id", fmt.Sprint(id))
	h.Set("Trailer", "X-Schedd-Io, X-Schedd-Peak, X-Schedd-Cache-Peak-Bytes, X-Schedd-Error")
	w.WriteHeader(http.StatusOK)

	// The response write stack, innermost first: the real writer, the
	// WriterStall/WriterIO fault shims, then the write-deadline sentinel
	// that turns a stalled reader into a sealed, resumable request.
	dw := &deadlineWriter{
		w:       faultinject.NewWriter(&stallWriter{w: w}),
		rc:      http.NewResponseController(w),
		timeout: s.cfg.WriteTimeout,
		cancel:  cancel,
	}
	streamStart := time.Now()
	var res *core.Result
	var runErr error
	ids, werr := tree.WriteScheduleAt(dw, skip, func(yield func(seg []int) bool) bool {
		segs := 0
		res, runErr = rn.RunStream(alg, t, M, func(seg []int) bool {
			if s.testSegment != nil {
				segs++
				s.testSegment(segs)
			}
			return yield(seg)
		})
		return runErr == nil
	})
	streamDur := time.Since(streamStart)

	outcome := runErr
	if outcome == nil && werr != nil {
		outcome = werr
	}
	if dw.sealed {
		s.mu.Lock()
		s.sealed++
		s.mu.Unlock()
		// A seal that landed after the stream completed did no harm: the
		// client has every byte. Only an interrupted stream reports it.
		if outcome != nil {
			outcome = fmt.Errorf("schedd: stream sealed after the %v write deadline: %w", s.cfg.WriteTimeout, outcome)
		}
	}
	if outcome == nil {
		if res != nil {
			cs := rn.CacheStats()
			h.Set("X-Schedd-Io", fmt.Sprint(res.IO))
			h.Set("X-Schedd-Peak", fmt.Sprint(res.Peak))
			h.Set("X-Schedd-Cache-Peak-Bytes", fmt.Sprint(cs.PeakResidentBytes))
		}
		if ckptPath != "" && !keyed {
			// A served anonymous request needs no resume; keyed requests
			// KEEP their checkpoint (in its finished phase), so a retry of
			// the same key re-emits without redoing the expansion walk.
			_ = os.Remove(ckptPath)
		}
		s.mu.Lock()
		d := time.Since(start).Seconds()
		if s.ewmaServe == 0 {
			s.ewmaServe = d
		} else {
			s.ewmaServe = 0.8*s.ewmaServe + 0.2*d
		}
		s.mu.Unlock()
	} else {
		h.Set("X-Schedd-Error", outcome.Error())
	}
	if keyed {
		// Final journal commit: the absolute emitted count (advisory —
		// the client's RepairSchedule prefix is the real resume cursor)
		// and completeness. A prior attempt's completeness is never
		// regressed; emission is deterministic, so the totals agree.
		fin := &Entry{FP: fp, CkptPath: ckptPath, Committed: skip + ids, Complete: outcome == nil}
		if bind.Entry != nil && bind.Entry.Complete {
			fin.Complete = true
			if fin.Committed < bind.Entry.Committed {
				fin.Committed = bind.Entry.Committed
			}
		}
		_ = bind.Commit(fin)
	}

	s.log.Info("schedd: request",
		"id", id, "name", req.Name, "n", t.N(), "alg", string(alg), "m", M,
		"lease_bytes", lease.Cost(), "queue_wait_ms", qwait.Milliseconds(),
		"engine_wait_ms", engineWait.Milliseconds(),
		"stream_ms", streamDur.Milliseconds(), "ids", ids,
		"key", req.IdempotencyKey, "skip", skip, "resumed", resumed,
		"sealed", dw.sealed, "err", errString(outcome))
	return outcome
}

// preflightCkpt reports whether the checkpoint at path exists and belongs
// to the fingerprinted instance, so the engine's resume cannot fail AFTER
// the 200 and the first schedule bytes are on the wire. Anything else —
// missing file aside — is deleted so the run starts fresh: checkpoint
// damage costs recomputation, never a failed request.
func preflightCkpt(path string, fp ReqFingerprint, alg core.Algorithm) bool {
	if _, err := os.Stat(path); err != nil {
		return false
	}
	st, err := ckpt.ReadFile(path)
	if err != nil {
		_ = os.Remove(path)
		return false
	}
	// MaxPerNode is the one engine-option fingerprint field the serving
	// layer determines (via the algorithm); Victim and GlobalCap are
	// engine defaults identical across serving runs, so matching the
	// instance fields guarantees the engine-side fingerprint check passes.
	maxPerNode := int64(2)
	if alg == core.FullRecExpand {
		maxPerNode = 0
	}
	if st.FP.TreeHash != fp.TreeHash || st.FP.N != fp.N || st.FP.M != fp.M || st.FP.MaxPerNode != maxPerNode {
		_ = os.Remove(path)
		return false
	}
	return true
}

// acquire resolves the request's admission wait policy against the broker
// and reports how long admission queued.
func (s *Server) acquire(ctx context.Context, req *Request, cost int64) (*Lease, time.Duration, error) {
	if req.WaitMS <= 0 {
		l, err := s.broker.TryAcquire(cost)
		return l, 0, err
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait > s.cfg.MaxWait {
		wait = s.cfg.MaxWait
	}
	wctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	start := time.Now()
	l, err := s.broker.Acquire(wctx, cost)
	return l, time.Since(start), err
}

// rejectLease maps a failed lease acquisition to its status: 413 for
// oversize (with the estimate attached), 503 for an injected acquisition
// fault, 429 + Retry-After for budget pressure.
func (s *Server) rejectLease(w http.ResponseWriter, err error, cost int64) {
	var oe *OversizeError
	switch {
	case errors.As(err, &oe):
		s.reject(w, http.StatusRequestEntityTooLarge, "oversize",
			fmt.Sprintf("schedd: estimated cost %d bytes exceeds the global budget %d bytes", oe.Cost, oe.Total))
	case errors.Is(err, faultinject.ErrLeaseAcquire):
		s.reject(w, http.StatusServiceUnavailable, "fault", err.Error())
	case errors.Is(err, ErrBudgetBusy):
		w.Header().Set("Retry-After", s.retryAfter(cost))
		s.reject(w, http.StatusTooManyRequests, "busy",
			fmt.Sprintf("schedd: budget busy for a %d-byte lease, retry later", cost))
	default:
		s.reject(w, http.StatusBadRequest, "invalid", err.Error())
	}
}

// retryAfter estimates, in whole seconds, when a cost-byte lease will
// plausibly fit: the demand ahead of the retry (bytes leased out + bytes
// waiting + this request) divided by the budget gives the number of
// serving rounds it must wait through, each costing roughly the observed
// mean served-request duration. Clamped to [1, 60] — an estimate, not a
// promise, but one that scales with actual queue depth instead of the
// constant it replaces.
func (s *Server) retryAfter(cost int64) string {
	bs := s.broker.Stats()
	demand := bs.Used + bs.WaitingCost + cost
	rounds := (demand + bs.Total - 1) / bs.Total
	s.mu.Lock()
	per := s.ewmaServe
	s.mu.Unlock()
	if per <= 0 {
		per = 1
	}
	est := int64(per*float64(rounds) + 0.5)
	if est < 1 {
		est = 1
	}
	if est > 60 {
		est = 60
	}
	return strconv.FormatInt(est, 10)
}

// Drain gracefully shuts the service down: stop admitting, let in-flight
// requests finish for the configured grace, then cancel the stragglers so
// checkpoint-armed runs flush a resumable state and the streams seal with
// a truncation trailer. It returns nil once no request is in flight, or
// ctx.Err() if ctx expires first.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	graceDone := time.After(s.cfg.DrainGrace)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-graceDone:
			// Grace expired: cancel every in-flight request context and
			// keep waiting for the engines to reach a quiescent point.
			s.hardCancel()
			graceDone = nil
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// handleHealthz reports process liveness: 200 for as long as the handler
// can run at all, draining included.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports admission readiness: 503 once draining begins, so
// a load balancer stops routing before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleStatz serves the broker, serving and journal counters as JSON.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		// Broker is the lease accounting (queue depth and waiting cost
		// included); Serving the request outcomes; Journal the
		// idempotency-key accounting.
		Broker  BrokerStats  `json:"broker"`
		Serving ServingStats `json:"serving"`
		Journal JournalStats `json:"journal"`
	}{s.broker.Stats(), s.Stats(), s.journal.Stats()})
}

// stallWriter is the slow-client injection shim of the response path: a
// triggered WriterStall fault delays the write, simulating a client that
// stops reading mid-stream, which must stall only its own request while
// the daemon keeps serving others.
type stallWriter struct {
	w io.Writer
}

// Write delays when the armed WriterStall fault triggers, then forwards.
func (sw *stallWriter) Write(p []byte) (int, error) {
	if faultinject.Fire(faultinject.WriterStall) {
		time.Sleep(100 * time.Millisecond)
	}
	return sw.w.Write(p)
}

// deadlineWriter is the slow-client sentinel of the response path. Each
// Write is bounded two ways: the connection write deadline (best-effort
// via ResponseController — unblocks a Write stuck on a full TCP window)
// and a wall-clock overrun check (catches a trickling reader the conn
// deadline never fires on). Either trips the seal: the request context is
// cancelled, so the engine quiesces, flushes its armed checkpoint (the
// consumer-stopped flush path of the expansion runner) and the stream
// ends with the truncation trailer — after which a retry with the same
// idempotency key resumes instead of recomputing. Writes keep forwarding
// after the seal (under one more bounded deadline window) so the trailer
// has a chance to reach a client that resumes reading.
type deadlineWriter struct {
	w       io.Writer
	rc      *http.ResponseController
	timeout time.Duration
	cancel  context.CancelFunc
	// sealed records that the deadline tripped; read after the stream to
	// classify the outcome. Single-goroutine (the handler's), no lock.
	sealed bool
}

// Write forwards p, arming the per-write deadline and sealing on overrun.
func (dw *deadlineWriter) Write(p []byte) (int, error) {
	if dw.timeout <= 0 || dw.sealed {
		return dw.w.Write(p)
	}
	_ = dw.rc.SetWriteDeadline(time.Now().Add(dw.timeout))
	start := time.Now()
	n, err := dw.w.Write(p)
	if err != nil || time.Since(start) > dw.timeout {
		dw.sealed = true
		// One more window for the trailer, then the conn stays dead.
		_ = dw.rc.SetWriteDeadline(time.Now().Add(dw.timeout))
		dw.cancel()
	}
	return n, err
}

// errString renders an outcome for the request log, "" for success.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
