// Package faultinject is a deterministic, seed-driven fault-injection
// registry for the engine's robustness tests. Production code calls the
// Fire/FireN hooks at its injection points; under the default build the
// hooks are compiled as constant-false no-ops (see disabled.go), and under
// the `faultinject` build tag they count hits with atomic counters and
// trigger the armed fault exactly once (see enabled.go).
//
// The intended protocol is count-then-arm: run the workload once with
// nothing armed to learn how often a point fires (Hits), derive a
// deterministic hit index from a test seed (PlanHit), Reset, Arm that
// index, and re-run. Concurrent workloads still fire exactly once at a
// deterministic hit NUMBER, though which goroutine observes that hit may
// vary; sequential workloads are fully deterministic.
//
// The registry is process-global on purpose — the hooks sit deep inside
// the profile arena and cache, where threading a handle through every
// call would distort the very hot paths the faults are meant to stress. Tests that arm faults must therefore not run in parallel with
// each other.
package faultinject

import "errors"

// Point identifies one injection site compiled into the engine.
type Point uint8

// The compiled-in injection points. Hits are counted per point; see the
// hook sites for what a triggered fault does there.
const (
	// ArenaAlloc fires in the liu profile arena's rope allocation; a
	// triggered fault panics with ErrArenaAlloc (contained and converted
	// to a typed error at the expand.Engine boundary).
	ArenaAlloc Point = iota
	// CacheEvict fires at the liu cache's safe eviction windows (consumed
	// slices during a warm, hanging subtrees at invalidation); a triggered
	// fault forces the eviction even when the budget would not demand it.
	CacheEvict
	// WriterIO fires per byte offered to a Writer; a triggered fault makes
	// that Write call fail with ErrWrite, so arming hit N injects an I/O
	// error at byte N of the output stream.
	WriterIO
	// CkptWrite fires once per durable checkpoint write (ckpt.WriteFile);
	// a triggered fault fails that write with ErrCkptWrite after flushing
	// only a prefix of the temp file, so the committed checkpoint on disk
	// must stay the previous, intact one.
	CkptWrite
	// CkptRename fires at the atomic-rename step of a checkpoint write; a
	// triggered fault fails the rename with ErrCkptRename, leaving a fully
	// written temp file next to the still-intact previous checkpoint.
	CkptRename
	// LeaseAcquire fires per budget-lease acquisition attempt in the
	// schedd broker; a triggered fault fails that acquisition with
	// ErrLeaseAcquire (surfaced to the client as a 503), exercising the
	// admission path's error handling without exhausting the budget.
	LeaseAcquire
	// HandlerPanic fires at the start of each schedd request handler; a
	// triggered fault panics with ErrHandlerPanic inside the handler,
	// which the server must contain to a 500 on that request only — the
	// daemon stays serving.
	HandlerPanic
	// WriterStall fires per response Write of the schedd streaming path;
	// a triggered fault makes the server stall that write briefly,
	// simulating a slow client draining its response at a trickle while
	// other requests must keep being served.
	WriterStall

	numPoints
)

// String names the point.
func (p Point) String() string {
	switch p {
	case ArenaAlloc:
		return "ArenaAlloc"
	case CacheEvict:
		return "CacheEvict"
	case WriterIO:
		return "WriterIO"
	case CkptWrite:
		return "CkptWrite"
	case CkptRename:
		return "CkptRename"
	case LeaseAcquire:
		return "LeaseAcquire"
	case HandlerPanic:
		return "HandlerPanic"
	case WriterStall:
		return "WriterStall"
	}
	return "Point(?)"
}

// The sentinel values injected faults surface with: the panic values the
// engine's and the server's containment layers must convert to typed
// errors, and the errors the injected I/O and admission failures return.
var (
	// ErrArenaAlloc is the panic value of an injected arena allocation
	// failure (the ArenaAlloc point).
	ErrArenaAlloc = errors.New("faultinject: injected arena allocation failure")
	// ErrWrite is the error an injected Writer failure returns (the
	// WriterIO point).
	ErrWrite = errors.New("faultinject: injected write error")
	// ErrCkptWrite is the error an injected checkpoint write failure
	// returns (the CkptWrite point).
	ErrCkptWrite = errors.New("faultinject: injected checkpoint write failure")
	// ErrCkptRename is the error an injected checkpoint rename failure
	// returns (the CkptRename point).
	ErrCkptRename = errors.New("faultinject: injected checkpoint rename failure")
	// ErrLeaseAcquire is the error an injected budget-lease acquisition
	// failure returns (the LeaseAcquire point).
	ErrLeaseAcquire = errors.New("faultinject: injected lease acquisition failure")
	// ErrHandlerPanic is the panic value of an injected request-handler
	// panic (the HandlerPanic point).
	ErrHandlerPanic = errors.New("faultinject: injected handler panic")
)

// PlanHit derives a deterministic 1-based hit index in [1, total] from a
// test seed — the arming value for a point observed to fire total times in
// a counting run. It returns 0 (never fires) when total is 0. The mix is
// splitmix64, so nearby seeds arm well-spread indices.
func PlanHit(seed int64, p Point, total uint64) uint64 {
	if total == 0 {
		return 0
	}
	x := uint64(seed) + (uint64(p)+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return 1 + x%total
}
