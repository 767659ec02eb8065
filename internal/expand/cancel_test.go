package expand

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/liu"
	"repro/internal/randtree"
	"repro/internal/tree"
)

// cancelInstance builds a tree large enough that both drivers have real
// work to interrupt, with an M in the interesting band.
func cancelInstance(t *testing.T, n int, seed int64) (*tree.Tree, int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := randtree.Synth(n, rng)
	lb := tr.MaxWBar()
	_, peak := liu.MinMem(tr)
	if peak <= lb {
		t.Fatalf("seed %d: instance needs no I/O", seed)
	}
	return tr, (lb + peak) / 2
}

// TestCancelPreCanceledContext checks the fast path: a context that is
// already done stops both drivers before any expansion work, and the same
// engine then completes an identical uncancelled run.
func TestCancelPreCanceledContext(t *testing.T) {
	tr, M := cancelInstance(t, 8000, 101)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	want, err := RecExpand(tr, M, Options{MaxPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		eng := NewEngine()
		_, err := eng.RecExpand(tr, M, Options{MaxPerNode: 2, Workers: workers, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		// The engine survives the aborted run: the same instance reuses it.
		got, err := eng.RecExpand(tr, M, Options{MaxPerNode: 2, Workers: workers, Ctx: context.Background()})
		if err != nil {
			t.Fatalf("workers=%d: rerun: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: rerun diverges from the uncancelled result", workers)
		}
	}
}

// TestCancelMidStream cancels from inside the streaming consumer — the
// SIGINT shape: the run must end with the context's error, not
// ErrEmissionStopped (the consumer kept saying yes), and emit no further
// segments after the cancellation is observed.
func TestCancelMidStream(t *testing.T) {
	tr, M := cancelInstance(t, 8000, 103)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	segsAfter := 0
	canceled := false
	_, err := NewEngine().RecExpandStream(tr, M, Options{MaxPerNode: 2, Ctx: ctx}, func(seg []int) bool {
		if canceled {
			segsAfter++
		}
		canceled = true
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if segsAfter != 0 {
		t.Fatalf("%d segments emitted after cancellation", segsAfter)
	}
	if !canceled {
		t.Fatal("stream never reached the consumer")
	}
}

// TestCancelDuringParallelExpand races a late cancellation against a run
// whose profile warm is sharded over four goroutines (run under -race in
// CI): whether the cancel lands in the warm, in the walk or not at all, the outcome must be either ctx.Err() or the exact
// uncancelled result, and the engine must complete a clean rerun.
func TestCancelDuringParallelExpand(t *testing.T) {
	tr, M := cancelInstance(t, 30000, 107)
	want, err := RecExpand(tr, M, Options{MaxPerNode: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, delay := range []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		var fired atomic.Bool
		timer := time.AfterFunc(delay, func() { fired.Store(true); cancel() })
		eng := NewEngine()
		got, err := eng.RecExpand(tr, M, Options{MaxPerNode: 2, Workers: 4, Ctx: ctx})
		timer.Stop()
		cancel()
		switch {
		case err == nil:
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("delay %v: uncancelled-in-time run diverges", delay)
			}
		case errors.Is(err, context.Canceled) && fired.Load():
			// Cancelled in flight; the engine must be re-runnable.
		default:
			t.Fatalf("delay %v: unexpected error %v", delay, err)
		}
		got, err = eng.RecExpand(tr, M, Options{MaxPerNode: 2, Workers: 4, Ctx: context.Background()})
		if err != nil {
			t.Fatalf("delay %v: rerun: %v", delay, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("delay %v: rerun diverges from the uncancelled result", delay)
		}
	}
}

// TestCancelNilAndBackgroundCtxFree pins the zero-overhead contract: the
// nil context and context.Background() (whose Done channel is nil) both
// disable cancellation entirely — same Result, no error.
func TestCancelNilAndBackgroundCtxFree(t *testing.T) {
	tr, M := cancelInstance(t, 2000, 109)
	want, err := RecExpand(tr, M, Options{MaxPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RecExpand(tr, M, Options{MaxPerNode: 2, Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("context.Background() changed the result")
	}
}
