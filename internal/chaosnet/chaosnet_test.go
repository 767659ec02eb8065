package chaosnet

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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/randtree"
	"repro/internal/schedclient"
	"repro/internal/schedd"
	"repro/internal/tree"
)

// quiet drops log noise from the daemons under chaos.
func quiet() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// chaosInstance synthesizes an I/O-bound instance for the grid.
func chaosInstance(t *testing.T, n int, seed int64) (*tree.Tree, int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for {
		tr := randtree.Synth(n, rng)
		in := core.NewInstance("chaos", tr)
		if in.NeedsIO() {
			return tr, in.M(core.BoundMid)
		}
	}
}

// directStream is the ground truth: the uninterrupted RunStream bytes.
func directStream(t *testing.T, tr *tree.Tree, M int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	rn := core.NewRunner(0)
	if _, err := tree.WriteSchedule(&buf, func(yield func(seg []int) bool) bool {
		_, err := rn.RunStream(core.RecExpand, tr, M, yield)
		return err == nil
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chaosHTTPClient gives every request its own connection, so each draws
// its own fault plan from the proxy.
func chaosHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
}

// schedReq builds the client request for tr under M.
func schedReq(t *testing.T, tr *tree.Tree, M int64) schedd.Request {
	t.Helper()
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	return schedd.Request{Tree: raw, M: M, WaitMS: 2000}
}

// TestProxyCleanPassThrough: with no fault probability, the proxy is an
// invisible TCP relay — HTTP round-trips through it unchanged.
func TestProxyCleanPassThrough(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "pong")
	}))
	defer backend.Close()
	p, err := New(Config{Target: backend.Listener.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	resp, err := chaosHTTPClient().Get("http://" + p.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "pong" {
		t.Fatalf("through-proxy body %q", b)
	}
	st := p.Stats()
	if st.Conns != 1 || st.Clean != 1 || st.BytesDown == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestProxyDeterministicPlans: two proxies with the same seed draw the
// same fault sequence; a different seed draws a different one.
func TestProxyDeterministicPlans(t *testing.T) {
	draw := func(seed int64) []faultKind {
		p := &Proxy{cfg: Config{
			ResetProb: 0.3, TruncProb: 0.3, StallProb: 0.2, ThrottleProb: 0.1,
		}.withDefaults(), rng: rand.New(rand.NewSource(seed)), target: "x"}
		var kinds []faultKind
		for i := 0; i < 64; i++ {
			pl, _ := p.draw()
			kinds = append(kinds, pl.kind)
		}
		return kinds
	}
	a, b, c := draw(5), draw(5), draw(6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds drew identical plans")
	}
}

// TestChaosServingGrid is the kill-anywhere serving grid of the issue:
// for a seeded chaos schedule of connection resets, mid-body truncations,
// stalls and throttling, every request driven through
// client↔proxy↔daemon eventually completes and its reassembled stream is
// byte-for-byte identical to an uninterrupted RunStream of the same
// instance. Runs per seed so a failure names its chaos schedule.
func TestChaosServingGrid(t *testing.T) {
	seeds := []int64{1, 2, 3}
	reqs := 6
	if testing.Short() {
		seeds = seeds[:1]
		reqs = 3
	}
	tr, M := chaosInstance(t, 12000, 101)
	want := directStream(t, tr, M)

	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s, err := schedd.NewServer(schedd.Config{
				Budget:        256 << 20,
				CheckpointDir: t.TempDir(),
				Logger:        quiet(),
			})
			if err != nil {
				t.Fatal(err)
			}
			backend := httptest.NewServer(s.Handler())
			defer backend.Close()
			p, err := New(Config{
				Target:        backend.Listener.Addr().String(),
				Seed:          seed,
				ResetProb:     0.35,
				TruncProb:     0.35,
				StallProb:     0.1,
				ThrottleProb:  0.1,
				StallDur:      20 * time.Millisecond,
				FaultAfterMax: 32 << 10,
				MaxFaults:     int64(reqs) * 4, // chaos dries up, completion guaranteed
			})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			c := schedclient.New(schedclient.Config{
				BaseURL:       "http://" + p.Addr(),
				HTTPClient:    chaosHTTPClient(),
				MaxAttempts:   12,
				BaseBackoff:   2 * time.Millisecond,
				MaxBackoff:    50 * time.Millisecond,
				MaxRetryAfter: 50 * time.Millisecond,
				Seed:          seed,
			})
			retries, resumes := 0, 0
			for i := 0; i < reqs; i++ {
				res, err := c.Stream(context.Background(), schedReq(t, tr, M))
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if !bytes.Equal(res.Stream, want) {
					t.Fatalf("request %d: reassembled stream diverges from direct RunStream (%d vs %d bytes)",
						i, len(res.Stream), len(want))
				}
				retries += res.Retries
				resumes += res.Resumes
			}
			st := p.Stats()
			if st.Resets+st.Truncates+st.Stalls+st.Throttles == 0 {
				t.Fatalf("chaos injected nothing: %+v", st)
			}
			t.Logf("proxy: %+v; client retries=%d resumes=%d", st, retries, resumes)
		})
	}
}

// TestChaosDrainFailover is the drain leg of the grid: server A is
// drained mid-stream, the proxy is repointed at server B sharing A's
// checkpoint directory, and the client's retry resumes A's flushed
// checkpoint on B — the reassembled stream still byte-identical to an
// uninterrupted run.
func TestChaosDrainFailover(t *testing.T) {
	ckptDir := t.TempDir()
	tr, M := chaosInstance(t, 20000, 103)
	want := directStream(t, tr, M)

	newServer := func(wrap func(http.Handler) http.Handler) (*schedd.Server, *httptest.Server) {
		s, err := schedd.NewServer(schedd.Config{
			Budget:        256 << 20,
			CheckpointDir: ckptDir,
			DrainGrace:    10 * time.Millisecond,
			Logger:        quiet(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(wrap(s.Handler()))
	}
	// A serves only the first, torn attempt. A retry that reaches A is
	// held until the proxy points at B and then refused with 503, so the
	// request always completes on B however the client's backoff races
	// the repointing.
	repointed := make(chan struct{})
	releaseA := sync.OnceFunc(func() { close(repointed) })
	var attemptsA atomic.Int32
	sA, srvA := newServer(func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if attemptsA.Add(1) > 1 {
				<-repointed
				http.Error(w, "failing over", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	defer srvA.Close()
	defer releaseA() // before srvA.Close, which waits for held handlers
	sB, srvB := newServer(func(h http.Handler) http.Handler { return h })
	defer srvB.Close()

	// One guaranteed mid-body truncation on the first connection (to A),
	// clean after that: the cut is deterministic, the drain is not racing
	// socket buffering.
	p, err := New(Config{
		Target:        srvA.Listener.Addr().String(),
		Seed:          9,
		TruncProb:     1,
		MaxFaults:     1,
		FaultAfterMax: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := schedclient.New(schedclient.Config{
		BaseURL:       "http://" + p.Addr(),
		HTTPClient:    chaosHTTPClient(),
		MaxAttempts:   10,
		BaseBackoff:   5 * time.Millisecond,
		MaxBackoff:    100 * time.Millisecond,
		MaxRetryAfter: 100 * time.Millisecond,
		Seed:          9,
	})
	type outcome struct {
		res *schedclient.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.Stream(context.Background(), schedReq(t, tr, M))
		done <- outcome{res, err}
	}()

	// Wait for the torn attempt to settle on A (its keyed checkpoint and
	// journal entry are then durably in the shared directory), repoint
	// the proxy at B, release A's held retries, and drain A. A may record
	// the attempt as errored (the cut propagated) or served (the proxy
	// swallowed the tail after A finished) — both leave the durable state
	// the retry needs.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := sA.Stats()
		if st.Errored+st.Served >= 1 && st.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("torn attempt never settled on A")
		}
		time.Sleep(time.Millisecond)
	}
	p.SetTarget(srvB.Listener.Addr().String())
	releaseA()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sA.Drain(ctx); err != nil {
		t.Fatalf("drain A: %v", err)
	}

	out := <-done
	if out.err != nil {
		t.Fatalf("client through failover: %v", out.err)
	}
	if !bytes.Equal(out.res.Stream, want) {
		t.Fatalf("failover reassembly diverges from direct RunStream (%d vs %d bytes)",
			len(out.res.Stream), len(want))
	}
	if out.res.Retries == 0 || out.res.Resumes == 0 {
		t.Fatalf("failover produced no retry/resume: %+v", out.res)
	}
	// B observed the key and resumed A's flushed state — the cross-daemon
	// handoff went through the shared durable journal and checkpoint, not
	// through luck.
	if js := sB.Journal().Stats(); js.Begun == 0 {
		t.Fatalf("server B never saw the key: %+v", js)
	}
	if st := sB.Stats(); st.Resumed == 0 {
		t.Fatalf("server B never resumed: %+v", st)
	}
}
