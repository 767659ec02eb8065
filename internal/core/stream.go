package core

import (
	"repro/internal/expand"
	"repro/internal/tree"
)

// RunStream executes alg on t under memory bound M like Run, but streams
// the schedule to yield segment by segment instead of materializing
// Result.Schedule — the serving path of schedd, where the response is
// written straight to the client via tree.WriteSchedule. Each yielded
// segment aliases a reusable buffer, valid only for the duration of the
// call. The returned Result carries a nil Schedule; the streamed segments
// concatenate to exactly the Schedule the materializing Run would have
// produced, and every other field is identical.
//
// For the expansion heuristics (RecExpand, FullRecExpand) the emission is
// truly out-of-core — expand.(*Engine).RecExpandStream with the Runner's
// settings threaded through, so the n-word slice never exists. The
// closed-form algorithms are single materializing passes by nature; their
// schedule is computed as in Run and then replayed through yield, which
// keeps the wire format identical across algorithms. If yield stops the
// emission early, RunStream returns expand.ErrEmissionStopped.
func (rn *Runner) RunStream(alg Algorithm, t *tree.Tree, M int64, yield func(seg []int) bool) (*Result, error) {
	opts, ok := rn.expandOptions(alg)
	if !ok {
		res, err := rn.Run(alg, t, M)
		if err != nil {
			return nil, err
		}
		if !res.Schedule.Emit(yield) {
			return nil, expand.ErrEmissionStopped
		}
		res.Schedule = nil
		return res, nil
	}
	if rn.Ctx != nil {
		select {
		case <-rn.Ctx.Done():
			return nil, rn.Ctx.Err()
		default:
		}
	}
	res, err := rn.eng.RecExpandStream(t, M, opts, yield)
	if err != nil {
		return nil, err
	}
	return &Result{Algorithm: alg, IO: res.IO, Peak: res.SimulatedPeak}, nil
}

// CacheStats exposes the profile-cache residency counters of the Runner's
// most recent expansion run (expand.(*Engine).CacheStats): schedd reports
// the peak resident cache per request next to the lease that bounded it.
func (rn *Runner) CacheStats() CacheStatsSnapshot {
	st := rn.eng.CacheStats()
	return CacheStatsSnapshot{
		PeakResidentBytes:  st.PeakResidentBytes,
		Evictions:          st.Evictions,
		Rematerializations: st.Rematerializations,
	}
}

// CacheStatsSnapshot is the Runner-level view of the expansion engine's
// cache counters — the subset the serving layer reports per request.
type CacheStatsSnapshot struct {
	// PeakResidentBytes is the high-water resident footprint of the
	// run's profile caches, the number a budget lease is calibrated
	// against.
	PeakResidentBytes int64
	// Evictions counts subtree evictions the budget forced.
	Evictions int64
	// Rematerializations counts recomputations of evicted profiles —
	// the time cost paid for staying inside the lease.
	Rematerializations int64
}
