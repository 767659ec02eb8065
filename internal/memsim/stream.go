package memsim

import "errors"

// ScheduleSource produces a schedule as a stream of segments: it calls
// yield with successive segments in traversal order and stops early if
// yield returns false, reporting whether the full schedule was delivered.
// liu.ProfileCache.EmitSchedule and expand.(*Engine).RecExpandStream both
// have this shape.
type ScheduleSource = func(yield func(seg []int) bool) bool

// ErrStreamStopped is returned by RunStream when the source stopped
// delivering segments before the schedule was complete (its own consumer
// cancelled, or it failed mid-stream).
var ErrStreamStopped = errors.New("memsim: schedule stream stopped early")

// RunStream simulates a schedule delivered as a stream of segments — the
// subtree rooted at root on ts under memory bound M, deriving τ with the
// given eviction policy — without ever materializing the schedule slice.
// It returns the same I/O volume and no-eviction peak as Run on the
// flattened schedule (pinned by TestRunStreamMatchesRun).
//
// The source is invoked exactly twice and must deliver the identical node
// sequence both times (streamed emissions are deterministic walks, so this
// holds for them by construction): the first pass feeds Index, the second
// Step. A divergence between the passes is detected and rejected. The only
// per-run transient beyond the simulator's preallocated node-indexed
// scratch is the source's segment, so verifying a streamed schedule adds
// O(segment) resident memory, not O(n).
func (s *Simulator) RunStream(ts TreeView, root int, M int64, source ScheduleSource, policy EvictionPolicy) (io, peak int64, err error) {
	s.Begin(ts, root, M, policy)
	var perr error
	index := func(seg []int) bool { perr = s.Index(seg); return perr == nil }
	step := func(seg []int) bool { perr = s.Step(seg); return perr == nil }
	complete := source(index) && perr == nil && source(step) && perr == nil
	io, peak, err = s.End()
	switch {
	case perr != nil:
		return 0, 0, perr
	case !complete:
		return 0, 0, ErrStreamStopped
	}
	return io, peak, err
}
