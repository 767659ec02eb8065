// Package memsim is the out-of-core memory substrate: it executes a task
// tree schedule under a main-memory bound M with unit-granularity paging to
// an unbounded disk, exactly following the model of Section 3 of RR-9025.
//
// The central entry point is Run, which evaluates a schedule σ and derives
// the I/O function τ using the Furthest-in-the-Future (FiF) eviction policy,
// which Theorem 1 of the paper proves optimal for a fixed σ. The package
// also provides Validate for checking arbitrary (σ, τ) traversals against
// the paper's validity conditions, Peak for the M = ∞ peak-memory
// evaluation used by the MinMem algorithms, and (*Simulator).RunStream for
// evaluating a schedule delivered as a stream of segments without ever
// materializing it (stream.go). Both drive the simulator's two passes,
// Begin/Index/Step/End, which callers that own their segments (the
// expansion engine's finish) drive directly.
package memsim

import (
	"fmt"
	"math"

	"repro/internal/tree"
)

// Unbounded is a memory bound large enough to never trigger I/O; passing it
// to Run computes the in-core peak of a schedule.
const Unbounded = math.MaxInt64 / 4

// EvictionPolicy selects which active data to page out when memory
// overflows. FiF is optimal (Theorem 1); the others exist for the ablation
// benchmarks that demonstrate that optimality empirically.
type EvictionPolicy int

const (
	// FiF evicts the active data whose parent is scheduled furthest in
	// the future (the paper's policy, analogous to Belady's MIN rule).
	FiF EvictionPolicy = iota
	// NiF (nearest in future) evicts the data needed soonest: the
	// pessimal counterpart of FiF.
	NiF
	// LargestFirst evicts the active data with the largest resident part.
	LargestFirst
)

// String names the policy.
func (p EvictionPolicy) String() string {
	switch p {
	case FiF:
		return "FiF"
	case NiF:
		return "NiF"
	case LargestFirst:
		return "LargestFirst"
	}
	return fmt.Sprintf("EvictionPolicy(%d)", int(p))
}

// StepTrace records the memory state around the execution of one task.
type StepTrace struct {
	Step    int   // schedule position
	Node    int   // task executed
	Before  int64 // resident volume before eviction, children included
	Need    int64 // w̄(node): memory required by the execution itself
	Evicted int64 // volume written to disk at this step
	After   int64 // resident volume right after the execution completes
}

// Result is the outcome of simulating a schedule.
type Result struct {
	Schedule tree.Schedule
	// Tau[i] is the total volume of node i's output written to disk
	// (the paper's τ(i)); reads are implicit and not counted.
	Tau []int64
	// IO is Σ_i Tau[i], the objective value of MinIO.
	IO int64
	// Peak is the maximum over steps of the memory in use had no
	// eviction been performed at that step; with M = Unbounded this is
	// the in-core peak memory of the schedule.
	Peak int64
	// Trace holds one entry per step when tracing was requested.
	Trace []StepTrace
}

// Run executes sched on t under memory bound M, deriving τ with the given
// eviction policy (use FiF for Theorem-1-optimal behaviour). It errors if
// sched is not a topological permutation or if M < max_i w̄(i).
func Run(t *tree.Tree, M int64, sched tree.Schedule, policy EvictionPolicy) (*Result, error) {
	return run(t, M, sched, policy, false)
}

// RunTraced is Run with a per-step trace attached to the result.
func RunTraced(t *tree.Tree, M int64, sched tree.Schedule, policy EvictionPolicy) (*Result, error) {
	return run(t, M, sched, policy, true)
}

// Peak returns the in-core peak memory of sched on t (the smallest M for
// which sched completes without any I/O).
func Peak(t *tree.Tree, sched tree.Schedule) (int64, error) {
	res, err := run(t, Unbounded, sched, FiF, false)
	if err != nil {
		return 0, err
	}
	return res.Peak, nil
}

func run(t *tree.Tree, M int64, sched tree.Schedule, policy EvictionPolicy, traced bool) (*Result, error) {
	s := NewSimulator()
	io, peak, err := s.run(t, t.Root(), M, sched, policy, traced)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Schedule: append(tree.Schedule(nil), sched...),
		Tau:      append([]int64(nil), s.tau[:t.N()]...),
		IO:       io,
		Peak:     peak,
	}
	if traced {
		res.Trace = append([]StepTrace(nil), s.trace...)
	}
	return res, nil
}

// Validate checks the paper's three validity conditions for an explicit
// traversal (σ, τ): topological order, 0 ≤ τ(i) ≤ w_i, and for every step,
// Σ_{k active}(w_k − τ(k)) ≤ M − w̄(executed node). Active means executed
// strictly before the step with parent executed strictly after it; writes
// happen immediately after production, reads immediately before the parent.
func Validate(t *tree.Tree, M int64, sched tree.Schedule, tau []int64) error {
	n := t.N()
	if len(tau) != n {
		return fmt.Errorf("memsim: τ has %d entries for %d nodes", len(tau), n)
	}
	if err := tree.Validate(t, sched); err != nil {
		return err
	}
	for i, ti := range tau {
		if ti < 0 || ti > t.Weight(i) {
			return fmt.Errorf("memsim: τ(%d)=%d out of [0, %d]", i, ti, t.Weight(i))
		}
	}
	var active int64 // Σ over active nodes of (w_k - τ(k))
	for step, v := range sched {
		for _, c := range t.Children(v) {
			active -= t.Weight(c) - tau[c]
		}
		if got, limit := active, M-t.WBar(v); got > limit {
			return fmt.Errorf("memsim: step %d (node %d): active resident %d > M-w̄ = %d",
				step, v, got, limit)
		}
		if t.Parent(v) != tree.None {
			active += t.Weight(v) - tau[v]
		}
	}
	return nil
}

// IOOf is a convenience wrapper returning only the FiF I/O volume of a
// schedule. Unlike Run it copies neither the schedule nor τ.
func IOOf(t *tree.Tree, M int64, sched tree.Schedule) (int64, error) {
	io, _, err := NewSimulator().Run(t, t.Root(), M, sched, FiF)
	return io, err
}
