package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/experiments"
)

// TestDrainSIGTERM is the end-to-end graceful-shutdown contract of the
// daemon: a real schedd binary, a real request streaming mid-flight, a
// real SIGTERM. Whatever the race between the drain and the engine, the
// process must exit 0 and the client must hold a crash-evident stream —
// either sealed complete ("# end count=", no checkpoint left behind) or
// sealed truncated ("# truncated count=", with the in-flight progress
// flushed as a committed, readable checkpoint file). A hang, a non-zero
// exit, or an unsealed stream is the bug this test exists to rule out.
func TestDrainSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real binary; skipped under -short")
	}
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal semantics required")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "schedd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building schedd: %v\n%s", err, out)
	}
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.Mkdir(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-budget", "1GiB",
		"-checkpoint-dir", ckptDir,
		"-drain-grace", "50ms",
		"-drain-timeout", "30s",
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Scrape the resolved address from the one stdout line.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Wait()
		t.Fatalf("schedd exited before announcing its address: %v", sc.Err())
	}
	line := sc.Text()
	addr := line[strings.LastIndex(line, " ")+1:]
	base := "http://" + addr
	go func() {
		for sc.Scan() {
			// Drain so the child never blocks on a full stdout pipe.
		}
	}()

	// Liveness before load.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()

	// A big expansion request: the engine is busy for long enough that
	// the SIGTERM below lands mid-run with overwhelming probability. The
	// bound is computed client-side so the server spends the whole window
	// expanding rather than analyzing.
	in := experiments.Huge(400000, 1)
	raw, err := json.Marshal(in.Tree)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(struct {
		Tree json.RawMessage `json:"tree"`
		M    int64           `json:"m"`
	}{Tree: raw, M: in.M(core.BoundMid)})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- result{status: resp.StatusCode, body: b, err: err}
	}()

	// Drain only once the engine has provably started: its first committed
	// checkpoint is on disk (the server commits to 200 before the engine
	// runs), or the request has already finished. A drain that lands
	// before the request reaches an engine is correctly answered with a
	// 503, which is not the mid-run drain this test is about; a fixed
	// sleep cannot rule that out on a loaded host.
	var res result
	finished := false
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(5 * time.Millisecond) {
		select {
		case res = <-done:
			finished = true
		default:
		}
		if started, _ := filepath.Glob(filepath.Join(ckptDir, "*.ckpt")); finished || len(started) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the engine wrote no checkpoint and the request did not finish within 2m")
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}

	werr := cmd.Wait()
	if werr != nil {
		var xerr *exec.ExitError
		if errors.As(werr, &xerr) {
			t.Fatalf("drained schedd exited %d, want 0", xerr.ExitCode())
		}
		t.Fatalf("wait: %v", werr)
	}

	if !finished {
		res = <-done
	}
	if res.err != nil {
		t.Fatalf("in-flight client: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight client status %d: %s", res.status, res.body)
	}
	ents, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case bytes.Contains(res.body, []byte("# end count=")):
		// The run beat the drain: complete stream, checkpoint cleaned up.
		if len(ents) != 0 {
			t.Fatalf("completed request left checkpoints: %v", ents)
		}
	case bytes.Contains(res.body, []byte("# truncated count=")):
		// The drain won. If the cancel landed after any engine progress
		// there is exactly one checkpoint and it must be committed and
		// readable; a cancel that beat the engine to its first write
		// legitimately leaves nothing behind. Never more than one file,
		// and never a torn one.
		switch len(ents) {
		case 0:
			t.Log("cancel landed before the first checkpoint write")
		case 1:
			st, err := ckpt.ReadFile(filepath.Join(ckptDir, ents[0].Name()))
			if err != nil {
				t.Fatalf("drained checkpoint unreadable: %v", err)
			}
			t.Logf("drain checkpointed at phase=%v emitted=%d", st.Phase, st.EmittedIDs)
		default:
			t.Fatalf("drained request left %d checkpoint files, want at most 1: %v", len(ents), ents)
		}
	default:
		t.Fatalf("in-flight stream is not crash-evident:\n...%q", tailBytes(res.body, 120))
	}
}

// tailBytes returns the last n bytes of b for failure messages.
func tailBytes(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	return b[len(b)-n:]
}

// TestDrainSIGTERMIdle: a SIGTERM to an idle daemon exits 0 promptly.
func TestDrainSIGTERMIdle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals a real binary; skipped under -short")
	}
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal semantics required")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "schedd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building schedd: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-budget", "64MiB")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Wait()
		t.Fatal("no address line")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("idle drain exited non-zero: %v", err)
	}
}
