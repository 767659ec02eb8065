package memsim

import (
	"errors"
	"fmt"
)

// TreeView is the read-only structural view of a task tree that the
// simulator needs. Both *tree.Tree and the mutable expanded trees of
// package expand satisfy it, so the same simulator serves the public Run
// API and the inner loop of the recursive-expansion engine without
// extracting subtree copies.
type TreeView interface {
	N() int
	Parent(i int) int
	Children(i int) []int
	Weight(i int) int64
}

// ChildRanker is an optional TreeView extension: ChildRanks()[i] is i's
// position in its parent's child list. When present, the eviction heap
// breaks key ties between siblings by child rank instead of node id, which
// reproduces exactly the behaviour of simulating an extracted copy of the
// subtree (extraction numbers siblings in child-list order). *tree.Tree
// deliberately does not implement it, keeping the historical id tie-break
// of the public Run API.
type ChildRanker interface {
	ChildRanks() []int32
}

// Simulator is a reusable out-of-core schedule evaluator. All per-run state
// (schedule positions, resident sizes, τ, the eviction heap, the optional
// trace) lives in preallocated scratch that is recycled across runs, so a
// warm simulator evaluates a schedule without allocating. A Simulator is
// not safe for concurrent use; the package-level Run creates a fresh one
// per call and remains safe.
//
// A run has two passes over the schedule, in order: an indexing pass that
// records every node's position (the future knowledge the FiF and NiF
// eviction keys need) and a stepping pass that simulates. Begin, Index,
// Step and End expose them to callers that deliver the schedule in
// segments; Run and RunStream drive them over a slice and a
// ScheduleSource.
//
// The zero value is ready to use.
type Simulator struct {
	h        NodeHeap
	pos      []int32  // schedule position per node, valid iff stamp matches
	stamp    []uint64 // generation stamp validating pos/resident/tau entries
	gen      uint64
	resident []int64
	tau      []int64
	trace    []StepTrace

	// The run between Begin and End; ts is nil outside one.
	ts      TreeView
	root    int
	M       int64
	policy  EvictionPolicy
	traced  bool
	indexed int // nodes the indexing pass has positioned
	st      simState
}

// NewSimulator returns an empty simulator; scratch grows on first use.
func NewSimulator() *Simulator { return &Simulator{} }

// Tau returns the simulator's τ array, indexed by node id of the TreeView
// passed to the last Run. Only entries of nodes in that run's schedule are
// meaningful. The slice is scratch: it is valid until the next Run.
func (s *Simulator) Tau() []int64 { return s.tau }

// Positions returns the schedule-position array of the last Run, indexed by
// node id. Only entries of nodes in that run's schedule are meaningful, and
// the slice is valid until the next Run.
func (s *Simulator) Positions() []int32 { return s.pos }

// Run simulates sched — a topological schedule of the subtree rooted at
// root — on ts under memory bound M, deriving τ with the given eviction
// policy. Nodes in sched index ts directly; root's output is treated as the
// final result (never activated, never evicted). It returns the total I/O
// volume and the peak demand (the memory in use had no eviction been
// performed, maximized over steps). τ and positions stay readable through
// Tau and Positions until the next Run.
func (s *Simulator) Run(ts TreeView, root int, M int64, sched []int, policy EvictionPolicy) (io, peak int64, err error) {
	return s.run(ts, root, M, sched, policy, false)
}

func (s *Simulator) run(ts TreeView, root int, M int64, sched []int, policy EvictionPolicy, traced bool) (int64, int64, error) {
	s.Begin(ts, root, M, policy)
	if traced {
		s.traced = true
		s.trace = s.trace[:0]
	}
	if err := s.Index(sched); err != nil {
		return 0, 0, err
	}
	if err := s.Step(sched); err != nil {
		return 0, 0, err
	}
	return s.End()
}

// ensure grows the scratch to cover n nodes.
func (s *Simulator) ensure(n int) {
	if len(s.pos) >= n {
		return
	}
	if c := cap(s.pos); c >= n {
		s.pos = s.pos[:n]
		s.stamp = s.stamp[:n]
		s.resident = s.resident[:n]
		s.tau = s.tau[:n]
	} else {
		s.realloc(n, max(n, 2*c))
	}
	s.h.grow(n)
}

// Reserve grows the scratch's capacity to n nodes, so that runs over trees
// of up to n nodes do not reallocate it. What the last Run left readable
// stays readable. A caller whose tree grows between runs (the expansion
// engine's mutable tree) reserves its room once instead of letting the
// first growth double every array.
func (s *Simulator) Reserve(n int) {
	if cap(s.pos) < n {
		s.realloc(len(s.pos), n)
	}
	s.h.reserve(n)
}

// realloc moves the node-indexed scratch to arrays of length l and
// capacity c, keeping their contents.
func (s *Simulator) realloc(l, c int) {
	pos := make([]int32, l, c)
	copy(pos, s.pos)
	stamp := make([]uint64, l, c)
	copy(stamp, s.stamp)
	resident := make([]int64, l, c)
	copy(resident, s.resident)
	tau := make([]int64, l, c)
	copy(tau, s.tau)
	s.pos, s.stamp, s.resident, s.tau = pos, stamp, resident, tau
}

// simState is the running state of one simulation, persisted across the
// segments of a streamed schedule.
type simState struct {
	residentSum int64
	io          int64
	peak        int64
	step        int
}

// errNoRun is returned by a pass method called outside a run: before
// Begin, after End, or after an earlier pass of the run failed.
var errNoRun = errors.New("memsim: no run in progress")

// Begin starts a run that simulates the subtree rooted at root of ts under
// memory bound M, deriving τ with the given eviction policy. Deliver the
// schedule to Index in segments, in order, then the identical sequence to
// Step, then call End; a run that stops early must still call End. The
// simulator keeps ts until End, or until a pass fails.
func (s *Simulator) Begin(ts TreeView, root int, M int64, policy EvictionPolicy) {
	s.ensure(ts.N())
	s.gen++
	s.h.clear()
	if rk, ok := ts.(ChildRanker); ok {
		s.h.rank = rk.ChildRanks()
	} else {
		s.h.rank = nil
	}
	s.ts, s.root, s.M, s.policy, s.traced = ts, root, M, policy, false
	s.indexed, s.st = 0, simState{}
}

// Index is the indexing pass over the next segment of the schedule: range
// and permutation checks plus the position, τ and resident resets of its
// nodes. Resetting resident and τ for exactly the scheduled nodes keeps
// the run correct after an earlier errored run left stale entries (stale
// entries of other nodes are never read: every node the simulation
// touches is validated to be in the schedule). An error ends the run.
func (s *Simulator) Index(seg []int) error {
	if s.ts == nil {
		return errNoRun
	}
	n := s.ts.N()
	gen := s.gen
	for k, v := range seg {
		if v < 0 || v >= n {
			return s.fail(fmt.Errorf("memsim: schedule entry %d out of range [0, %d)", v, n))
		}
		if s.stamp[v] == gen {
			return s.fail(fmt.Errorf("memsim: node %d scheduled twice", v))
		}
		s.stamp[v] = gen
		s.pos[v] = int32(s.indexed + k)
		s.resident[v] = 0
		s.tau[v] = 0
	}
	s.indexed += len(seg)
	return nil
}

// End closes the run. It returns the total I/O volume and the peak demand
// once Step has covered exactly the nodes Index positioned, and an error
// for an empty schedule, a stepping pass that fell short, or a run that
// already failed. Either way the simulator drops its references to the
// run's TreeView; τ and positions stay readable through Tau and Positions.
func (s *Simulator) End() (io, peak int64, err error) {
	switch {
	case s.ts == nil:
		err = errNoRun
	case s.indexed == 0:
		err = fmt.Errorf("memsim: empty schedule")
	case s.st.step != s.indexed:
		err = fmt.Errorf("memsim: stream delivered %d nodes on the second pass, %d on the first", s.st.step, s.indexed)
	default:
		io, peak = s.st.io, s.st.peak
	}
	s.drop()
	return io, peak, err
}

// fail ends the run with err.
func (s *Simulator) fail(err error) error {
	s.drop()
	return err
}

// drop releases the run's TreeView and the child ranks borrowed from it,
// so a reused simulator does not keep the last tree alive.
func (s *Simulator) drop() {
	s.ts, s.h.rank = nil, nil
}

// Step is the stepping pass over the next segment of the schedule, which
// continues the simulation where the previous segment left it. Every node
// must have been indexed first; a node arriving out of its indexed
// position (a second pass that diverged from the first) is rejected. An
// error ends the run.
func (s *Simulator) Step(seg []int) error {
	ts := s.ts
	if ts == nil {
		return errNoRun
	}
	n, root, M, policy, traced := ts.N(), s.root, s.M, s.policy, s.traced
	st := &s.st
	gen := s.gen
	residentSum, ioSum, peak := st.residentSum, st.io, st.peak
	for _, v := range seg {
		step := st.step
		st.step++
		if v < 0 || v >= n || s.stamp[v] != gen || s.pos[v] != int32(step) {
			return s.fail(fmt.Errorf("memsim: node %d at step %d does not match the indexing pass", v, step))
		}
		if v != root {
			p := ts.Parent(v)
			if p < 0 || p >= n || s.stamp[p] != gen || s.pos[p] < int32(step) {
				return s.fail(fmt.Errorf("memsim: node %d executed without its parent scheduled later", v))
			}
		}
		// The children of v leave the active set: their outputs are
		// consumed by v's execution (any evicted parts are read back,
		// which costs no additional writes). They leave the heap too, so
		// it holds live outputs only and no push sifts past dead entries.
		var cs int64
		for _, c := range ts.Children(v) {
			if s.stamp[c] != gen || s.pos[c] > int32(step) {
				return s.fail(fmt.Errorf("memsim: node %d executed before its child %d", v, c))
			}
			residentSum -= s.resident[c]
			s.resident[c] = 0
			if s.h.idx[c] >= 0 {
				s.h.Remove(c)
			}
			cs += ts.Weight(c)
		}
		need := cs // w̄(v) = max(w_v, Σ w_child)
		if w := ts.Weight(v); w > need {
			need = w
		}
		if need > M {
			return s.fail(fmt.Errorf("memsim: node %d needs w̄=%d > M=%d", v, need, M))
		}
		before := residentSum + need
		if before > peak {
			peak = before
		}
		var evicted int64
		for residentSum+need > M {
			var victim int
			if policy == LargestFirst {
				victim = s.h.largest(s.resident)
			} else {
				victim = s.h.Peek()
			}
			if victim < 0 {
				return s.fail(fmt.Errorf("memsim: internal error: overflow with empty active set at step %d", step))
			}
			overflow := residentSum + need - M
			take := s.resident[victim]
			if take > overflow {
				take = overflow
			}
			s.resident[victim] -= take
			residentSum -= take
			s.tau[victim] += take
			ioSum += take
			evicted += take
			if s.resident[victim] == 0 {
				s.h.Remove(victim)
			}
		}
		// v's output becomes active (unless v is the root, whose output
		// is the final result and is not consumed by any further task).
		if v != root {
			w := ts.Weight(v)
			s.resident[v] = w
			residentSum += w
			var key int64
			switch policy {
			case FiF:
				key = -int64(s.pos[ts.Parent(v)]) // max parent position first
			case NiF:
				key = int64(s.pos[ts.Parent(v)]) // min parent position first
			default:
				key = 0 // LargestFirst scans resident sizes dynamically
			}
			s.h.Push(v, key)
		}
		if traced {
			after := residentSum
			if v == root {
				after = ts.Weight(v)
			}
			s.trace = append(s.trace, StepTrace{
				Step: step, Node: v, Before: before, Need: need,
				Evicted: evicted, After: after,
			})
		}
	}
	st.residentSum, st.io, st.peak = residentSum, ioSum, peak
	return nil
}
