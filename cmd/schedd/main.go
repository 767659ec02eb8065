// Command schedd serves the scheduling engine as a long-running
// multi-tenant daemon: clients POST tree instances (JSON, as written by
// treegen, or the treegen text format) to /schedule and stream back the
// schedule — the same bytes `sched -stream-sched` writes — while a budget
// lease broker partitions one global resident-byte budget across the
// concurrent requests (admission control: 429 + Retry-After under
// pressure, 413 for requests no budget state could ever admit).
//
// Requests may carry an idempotency_key: the daemon journals the key's
// progress durably (under -checkpoint-dir) so a retry of the same key
// with resume_from resumes the interrupted stream byte-identically
// instead of recomputing it. With -write-timeout set, a client too slow
// to keep up has its stream sealed with a truncation trailer — and, when
// keyed, a checkpoint to resume from — rather than pinning an engine.
//
// Usage:
//
//	schedd -budget 1GiB
//	schedd -addr 127.0.0.1:8437 -budget 512MiB -engines 8 -checkpoint-dir /var/lib/schedd
//	curl -s localhost:8437/schedule -d '{"tree":{"parents":[-1,0,0],"weights":[5,3,4]},"m":12}'
//
// SIGTERM or SIGINT starts a graceful drain: admission closes (readyz
// flips to 503), in-flight requests get -drain-grace to finish, then the
// stragglers are cancelled at engine quiescent points — their streams are
// sealed with a truncation trailer and, with -checkpoint-dir set, their
// progress is flushed as resumable req-<id>.ckpt files — and the process
// exits 0. A second signal force-kills.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/schedd"
)

func main() {
	os.Exit(run())
}

// run is main with an exit code, so deferred cleanup runs before exit.
func run() int {
	addr := flag.String("addr", "127.0.0.1:8437", "listen address (host:port; :0 picks a free port)")
	budget := flag.String("budget", "1GiB", "global resident-byte budget partitioned across concurrent requests")
	engines := flag.Int("engines", 0, "engine pool size bounding concurrent expansions (0 = 4)")
	workers := flag.Int("workers", 0, "shards of each engine's initial profile warm (0 = auto: GOMAXPROCS on trees of 4096+ nodes)")
	maxTree := flag.String("max-tree-bytes", "", "request body size limit, e.g. 64MiB (empty = 64MiB)")
	timeout := flag.Duration("timeout", 0, "default per-request run+stream timeout (0 = 10m)")
	maxWait := flag.Duration("max-wait", 0, "cap on the client-requested admission wait (0 = 30s)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for per-request drain checkpoints (empty = no checkpoints)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-write deadline on the response stream; a slower client gets its stream sealed with a truncation trailer (0 = never)")
	drainGrace := flag.Duration("drain-grace", 0, "how long a drain lets in-flight requests finish before cancelling them (0 = 5s)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "hard bound on the whole drain")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	b, err := core.ParseByteSize(*budget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		return 1
	}
	mt, err := core.ParseByteSize(*maxTree)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		return 1
	}
	s, err := schedd.NewServer(schedd.Config{
		Budget:         b,
		Engines:        *engines,
		Workers:        *workers,
		MaxTreeBytes:   mt,
		DefaultTimeout: *timeout,
		MaxWait:        *maxWait,
		CheckpointDir:  *ckptDir,
		WriteTimeout:   *writeTimeout,
		DrainGrace:     *drainGrace,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		return 1
	}

	// Install the drain trigger before the address is announced: a client
	// that reacts to the stdout line by signalling immediately must hit
	// the graceful path, never the default signal disposition. Once the
	// context is done the handler is uninstalled, so a second signal
	// force-kills a stuck drain.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		return 1
	}
	// The one stdout line, for scripts that start schedd with :0 and need
	// the resolved port; everything else goes to the structured log.
	fmt.Printf("listening on %s\n", ln.Addr())
	logger.Info("schedd: serving", "addr", ln.Addr().String(), "budget_bytes", b)

	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		logger.Error("schedd: serve failed", "err", err)
		return 1
	case <-ctx.Done():
		stopSignals()
	}

	logger.Info("schedd: drain started", "grace", drainGrace.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		logger.Error("schedd: drain incomplete", "err", err)
		return 1
	}
	// No requests are in flight; Shutdown just closes the listener and
	// idle connections.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	_ = hs.Shutdown(sctx)
	logger.Info("schedd: drained, exiting")
	return 0
}
