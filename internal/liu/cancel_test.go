package liu

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/randtree"
)

// closedChan returns an already-closed Done channel: the earliest possible
// cancellation that still lets the pass run until its first poll.
func closedChan() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// TestCancelMidWarm interrupts a sequential warm via the Done signal and
// checks the canceled-pass contract: work actually stopped early, the
// cache invariants hold, and after ResetCancel the remaining work resumes
// to bit-identical results — with and without a residency budget.
func TestCancelMidWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	tr := randtree.Synth(20000, rng)
	ref := NewProfileCache(tr)
	wantPeak := ref.Peak(tr.Root())
	wantSched := ref.AppendSchedule(tr.Root(), nil)
	for _, budget := range []int64{0, 1 << 16} {
		c := NewProfileCacheOpts(tr, CacheOptions{MaxResidentBytes: budget, Done: closedChan()})
		c.ensure(tr.Root())
		if !c.Canceled() {
			t.Fatalf("budget %d: warm with a closed Done ran to completion", budget)
		}
		if c.availNode(tr.Root()) {
			t.Fatalf("budget %d: root resident despite cancellation", budget)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("budget %d: after cancel: %v", budget, err)
		}
		// The canceled cache is still evictable: dirtying a path must not
		// trip any accounting.
		c.Invalidate(tr.Root())
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("budget %d: after cancel+invalidate: %v", budget, err)
		}
		// Re-runnable: clear the latch, lift the signal, finish the work.
		c.ResetCancel()
		c.opts.Done = nil
		if got := c.Peak(tr.Root()); got != wantPeak {
			t.Fatalf("budget %d: peak after resume %d, want %d", budget, got, wantPeak)
		}
		if got := c.AppendSchedule(tr.Root(), nil); !reflect.DeepEqual(got, wantSched) {
			t.Fatalf("budget %d: schedule after resume diverges", budget)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("budget %d: after resume: %v", budget, err)
		}
	}
}

// TestCancelDuringParallelWarm cancels a sharded EnsureParallel while its
// workers are mid-flight (run under -race in CI): whatever subset of
// shards completed, the cache must be consistent and resumable.
func TestCancelDuringParallelWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	tr := randtree.Synth(60000, rng)
	want := NewProfileCache(tr).Peak(tr.Root())
	done := make(chan struct{})
	c := NewProfileCacheOpts(tr, CacheOptions{MaxResidentBytes: 1 << 18, Done: done})
	go func() {
		time.Sleep(2 * time.Millisecond)
		close(done)
	}()
	c.EnsureParallel(tr.Root(), 4)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after parallel cancel: %v", err)
	}
	c.ResetCancel()
	c.opts.Done = nil
	c.EnsureParallel(tr.Root(), 4)
	if got := c.Peak(tr.Root()); got != want {
		t.Fatalf("peak after resumed parallel warm %d, want %d", got, want)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after resumed parallel warm: %v", err)
	}
}

// TestCancelMidEmission pins the emission-side contract (the streaming
// counterpart of TestEmitWhileParallelWarm): a canceled ensure leaves the
// queried profile absent, so the emission is empty rather than partial-
// but-plausible, and the cache stays evictable and re-runnable.
func TestCancelMidEmission(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	tr := randtree.Synth(20000, rng)
	want := NewProfileCache(tr).AppendSchedule(tr.Root(), nil)
	c := NewProfileCacheOpts(tr, CacheOptions{MaxResidentBytes: 1 << 16, Done: closedChan()})
	var got []int
	c.EmitSchedule(tr.Root(), func(seg []int) bool {
		got = append(got, seg...)
		return true
	})
	if !c.Canceled() {
		t.Fatal("emission with a closed Done ran to completion")
	}
	if len(got) != 0 {
		t.Fatalf("canceled emission yielded %d ids; want none (full-or-empty contract)", len(got))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after canceled emission: %v", err)
	}
	c.Invalidate(tr.Root())
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after cancel+invalidate: %v", err)
	}
	c.ResetCancel()
	c.opts.Done = nil
	if got := c.AppendSchedule(tr.Root(), nil); !reflect.DeepEqual(got, want) {
		t.Fatal("schedule after resumed emission diverges")
	}
}
