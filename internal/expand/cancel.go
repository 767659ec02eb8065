// Cancellation and panic containment for the expansion engines.
//
// Cancellation is cooperative and coarse-grained on purpose: the run
// checks Options.Ctx once per expansion-loop iteration and per streamed
// segment — points that each represent thousands of node visits — and
// the profile cache polls the same signal every cancelPollInterval
// recomputes (liu.CacheOptions.Done). The hot paths between checks are
// untouched, so an armed-but-quiet context costs nothing measurable (see
// BENCH.md). After a cancelled run the engine and its cache are
// re-runnable: a run builds its mutable tree and cache fresh, and an
// interrupted cache keeps every published profile valid and every
// unreached node dirty.
//
// Containment converts panics into errors at the engine entry points:
// anything that reaches them — an injected fault, an invariant violation,
// a panic a sharded-warm goroutine re-raised at its join
// (liu.(*ProfileCache).EnsureParallel) — becomes a PanicError. Out-of-range
// inputs still return plain errors; the panic path exists for invariant
// violations and injected faults, which must not take down a process that
// has hours of other work in flight.
package expand

import (
	"context"
	"fmt"
	"runtime/debug"
)

// ctxDone returns the cancellation channel of ctx, tolerating the nil
// context of an Options value that never set one.
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// ctxErr reports a pending cancellation without blocking; a nil ctx means
// cancellation is not in use.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// mapErr gives a pending cancellation precedence over err: once the
// context is done, downstream failures (empty emissions, invalid
// schedules, stopped streams) are symptoms of the cancellation, and the
// caller should see ctx.Err() rather than the symptom.
func mapErr(ctx context.Context, err error) error {
	if cerr := ctxErr(ctx); cerr != nil {
		return cerr
	}
	return err
}

// PanicError is a panic recovered at an engine entry point; the engine
// stays consistent and the same call is re-runnable.
type PanicError struct {
	// Panic is the recovered panic value.
	Panic any
	// Stack is the stack trace captured at the recovery point.
	Stack []byte
}

// Error describes the contained panic.
func (p *PanicError) Error() string {
	return fmt.Sprintf("expand: panic during expansion: %v", p.Panic)
}

// Unwrap exposes an error-typed panic value to errors.Is/As chains.
func (p *PanicError) Unwrap() error {
	if err, ok := p.Panic.(error); ok {
		return err
	}
	return nil
}

// containPanic is the engine-boundary recover: deferred by the RecExpand
// entry points onto their named error result.
func containPanic(err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Panic: r, Stack: debug.Stack()}
	}
}
