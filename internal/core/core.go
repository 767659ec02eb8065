// Package core is the solver facade of the reproduction: it exposes the
// MinIO problem (minimize the I/O volume of an out-of-core task-tree
// traversal under a memory bound M), a registry of the paper's algorithms,
// the memory-bound selection rules of Section 6, and the performance metric
// used by the evaluation.
package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/expand"
	"repro/internal/liu"
	"repro/internal/memsim"
	"repro/internal/postorder"
	"repro/internal/tree"
)

// Algorithm identifies one scheduling strategy for MinIO.
type Algorithm string

const (
	// OptMinMem schedules with Liu's optimal peak-memory traversal and
	// pays FiF I/Os (Section 4.4).
	OptMinMem Algorithm = "OptMinMem"
	// PostOrderMinIO is Agullo's best postorder for the I/O volume
	// (Section 4.1).
	PostOrderMinIO Algorithm = "PostOrderMinIO"
	// PostOrderMinMem is Liu's best postorder for peak memory, included
	// as an additional baseline.
	PostOrderMinMem Algorithm = "PostOrderMinMem"
	// NaturalPostOrder processes children in construction order: the
	// naive baseline.
	NaturalPostOrder Algorithm = "NaturalPostOrder"
	// RecExpand is the paper's novel heuristic with expansion budget 2
	// per node (Section 5).
	RecExpand Algorithm = "RecExpand"
	// FullRecExpand is the unbounded variant (Algorithm 2).
	FullRecExpand Algorithm = "FullRecExpand"
)

// PaperAlgorithms lists the four strategies compared in Section 6, in the
// paper's plotting order.
var PaperAlgorithms = []Algorithm{OptMinMem, RecExpand, PostOrderMinIO, FullRecExpand}

// FastAlgorithms is PaperAlgorithms without FULLRECEXPAND, matching the
// paper's TREES runs (FULLRECEXPAND is only run on the smaller dataset
// "because of its high computational complexity").
var FastAlgorithms = []Algorithm{OptMinMem, RecExpand, PostOrderMinIO}

// Result reports a traversal produced by an algorithm.
type Result struct {
	Algorithm Algorithm
	Schedule  tree.Schedule
	// IO is the traversal's total I/O volume Σ τ(i) under memory bound M.
	IO int64
	// Peak is the in-core peak of the schedule (its memory need with
	// unbounded memory).
	Peak int64
}

// Performance returns the paper's Section 6 metric (M + IO) / M.
func (r *Result) Performance(M int64) float64 {
	return float64(M+r.IO) / float64(M)
}

// Runner executes algorithms with reusable state: one expansion engine
// whose scratch (simulator, schedule and rank buffers) survives across
// calls, plus the engine knobs threaded into the expansion heuristics.
// The experiment harness keeps one Runner per worker goroutine instead of
// re-allocating engine state per instance. A Runner is not safe for
// concurrent use.
type Runner struct {
	// Workers is the shard count of the expansion engine's initial
	// profile warm (expand.Options.Workers): 0 auto-selects GOMAXPROCS
	// on trees of at least 4096 nodes, 1 warms sequentially. Results are
	// identical for every setting.
	Workers int
	// CacheBudget is passed to the expansion engine
	// (expand.Options.CacheBudget): a bound, in bytes, on the resident
	// profile-cache footprint, under which clean subtree profiles are
	// evicted and recomputed on demand. 0 means unlimited. Results are
	// identical for every setting; only memory and time move.
	CacheBudget int64
	// Ctx cancels runs cooperatively (expand.Options.Ctx): Run checks it
	// on entry and the expansion engines check it throughout, so a SIGINT
	// aborts a long RecExpand instead of running to completion. The
	// direct algorithms (OptMinMem, the postorders) are single closed-form
	// passes and only honour the entry check. nil disables cancellation.
	Ctx context.Context
	// CheckpointPath arms durable checkpointing of the expansion
	// heuristics (expand.Options.Checkpoint.Path): the engine persists
	// its decision log and frontier there at quiescent points so a
	// killed run can be resumed via ResumeFrom. Empty disarms. The
	// direct algorithms are single closed-form passes and ignore it.
	CheckpointPath string
	// CheckpointInterval is the events-between-writes setting of the
	// armed checkpoint (expand.Options.Checkpoint.Interval); 0 means
	// the engine default.
	CheckpointInterval int
	// ResumeFrom resumes an expansion heuristic from a checkpoint file
	// written by a previous run of the same instance
	// (expand.Options.ResumeFrom). Empty disables resuming.
	ResumeFrom string

	eng *expand.Engine
}

// NewRunner returns a Runner with the given warm-shard setting (Workers)
// and fresh engine scratch.
func NewRunner(workers int) *Runner {
	return &Runner{Workers: workers, eng: expand.NewEngine()}
}

// Run executes the given algorithm on t under memory bound M, using the
// package default Runner settings (auto warm sharding).
func Run(alg Algorithm, t *tree.Tree, M int64) (*Result, error) {
	return NewRunner(0).Run(alg, t, M)
}

// Run executes the given algorithm on t under memory bound M.
func (rn *Runner) Run(alg Algorithm, t *tree.Tree, M int64) (*Result, error) {
	if rn.Ctx != nil {
		select {
		case <-rn.Ctx.Done():
			return nil, rn.Ctx.Err()
		default:
		}
	}
	if lb := t.MaxWBar(); M < lb {
		return nil, fmt.Errorf("core: M=%d below LB=%d", M, lb)
	}
	if opts, ok := rn.expandOptions(alg); ok {
		// The expansion engine already validated its transposed schedule
		// and simulated it on the original tree under M; reuse that run
		// instead of paying a redundant simulation here.
		res, err := rn.eng.RecExpand(t, M, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Algorithm: alg, Schedule: res.Schedule, IO: res.IO, Peak: res.SimulatedPeak}, nil
	}
	var sched tree.Schedule
	switch alg {
	case OptMinMem:
		sched, _ = liu.MinMem(t)
	case PostOrderMinIO:
		sched, _, _ = postorder.MinIO(t, M)
	case PostOrderMinMem:
		sched, _ = liu.PostOrderMinMem(t)
	case NaturalPostOrder:
		sched = t.NaturalPostorder()
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", alg)
	}
	io, peak, err := memsim.NewSimulator().Run(t, t.Root(), M, sched, memsim.FiF)
	if err != nil {
		return nil, fmt.Errorf("core: %s produced an invalid schedule: %w", alg, err)
	}
	return &Result{Algorithm: alg, Schedule: sched, IO: io, Peak: peak}, nil
}

// expandOptions maps an expansion heuristic and the Runner's settings to
// the engine's options: RecExpand cuts each node's loop after 2
// iterations, FullRecExpand runs it unbounded. ok is false for every
// other algorithm.
func (rn *Runner) expandOptions(alg Algorithm) (opts expand.Options, ok bool) {
	switch alg {
	case RecExpand:
		opts.MaxPerNode = 2
	case FullRecExpand:
		opts.MaxPerNode = 0
	default:
		return opts, false
	}
	opts.Workers = rn.Workers
	opts.CacheBudget = rn.CacheBudget
	opts.Ctx = rn.Ctx
	opts.Checkpoint = expand.CheckpointOptions{Path: rn.CheckpointPath, Interval: rn.CheckpointInterval}
	opts.ResumeFrom = rn.ResumeFrom
	return opts, true
}

// RunAll runs every algorithm of algs on t under M, returning results in
// the same order.
func RunAll(algs []Algorithm, t *tree.Tree, M int64) ([]*Result, error) {
	return NewRunner(0).RunAll(algs, t, M)
}

// RunAll runs every algorithm of algs on t under M with the Runner's
// settings, returning results in the same order.
func (rn *Runner) RunAll(algs []Algorithm, t *tree.Tree, M int64) ([]*Result, error) {
	out := make([]*Result, len(algs))
	for i, a := range algs {
		r, err := rn.Run(a, t, M)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// IOLowerBound returns a provable lower bound on the optimal I/O volume of
// t under memory bound M: any traversal whose I/O function sums to k keeps
// at most k units on disk at any instant, so its schedule's in-core peak is
// at most M + k; since that peak is at least Peak_incore (Liu's optimum),
// k ≥ Peak_incore − M.
func IOLowerBound(t *tree.Tree, M int64) int64 {
	if k := liu.MinMemPeak(t) - M; k > 0 {
		return k
	}
	return 0
}

// Bound selects the memory limit for an instance, per Section 6 and
// Appendix B.
type Bound int

const (
	// BoundMid is M = (LB + Peak_incore − 1) / 2, the main experiments'
	// setting.
	BoundMid Bound = iota
	// BoundLB is M1 = LB, the smallest bound for which the tree can be
	// processed (Appendix B).
	BoundLB
	// BoundPeakMinus1 is M2 = Peak_incore − 1, the largest bound for
	// which some I/O is required (Appendix B).
	BoundPeakMinus1
)

// String names the bound.
func (b Bound) String() string {
	switch b {
	case BoundMid:
		return "Mid"
	case BoundLB:
		return "LB"
	case BoundPeakMinus1:
		return "PeakMinus1"
	}
	return fmt.Sprintf("Bound(%d)", int(b))
}

// Instance couples a tree with its precomputed memory characteristics.
type Instance struct {
	Name string
	Tree *tree.Tree
	// LB = max_i w̄(i): minimum feasible memory.
	LB int64
	// Peak is the optimal in-core peak memory (OPTMINMEM's peak).
	Peak int64
}

// NewInstance analyzes t.
func NewInstance(name string, t *tree.Tree) *Instance {
	return &Instance{Name: name, Tree: t, LB: t.MaxWBar(), Peak: liu.MinMemPeak(t)}
}

// NeedsIO reports whether some memory bound in [LB, Peak−1] exists, i.e.
// whether the instance can be made I/O-bound at all. Section 6 drops TREES
// instances with Peak == LB.
func (in *Instance) NeedsIO() bool { return in.Peak > in.LB }

// M returns the memory bound selected by b for this instance.
func (in *Instance) M(b Bound) int64 {
	switch b {
	case BoundLB:
		return in.LB
	case BoundPeakMinus1:
		return in.Peak - 1
	default:
		return (in.LB + in.Peak - 1) / 2
	}
}

// Sort orders instances by name (stable dataset presentation).
func Sort(ins []*Instance) {
	sort.Slice(ins, func(i, j int) bool { return ins[i].Name < ins[j].Name })
}
