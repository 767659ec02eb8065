// Package repro is the public facade of this reproduction of Marchal,
// McCauley, Simon and Vivien, "Minimizing I/Os in Out-of-Core Task Tree
// Scheduling" (INRIA RR-9025, 2017).
//
// The model: a rooted in-tree of tasks, each producing one output data of a
// known size; a task needs all children outputs simultaneously in a main
// memory of size M and replaces them with its own output; data may be paged
// to disk at unit granularity, and the objective (MinIO) is to minimize the
// total volume written.
//
// Typical use:
//
//	t, _ := repro.NewTree([]int{repro.None, 0, 0}, []int64{2, 5, 4})
//	res, _ := repro.Schedule(t, 7, repro.RecExpand)
//	fmt.Println(res.IO, res.Schedule)
//
// The facade re-exports the stable subset of the internal packages; the
// full machinery (simulator traces, homogeneous-tree labels, sparse-matrix
// analysis, dataset generators, performance profiles) lives in internal/...
// and is exercised by the cmd/ tools and examples/.
package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/expand"
	"repro/internal/liu"
	"repro/internal/memsim"
	"repro/internal/oocexec"
	"repro/internal/postorder"
	"repro/internal/tree"
)

// Tree is the task tree type; see internal/tree for the full API.
type Tree = tree.Tree

// TaskSchedule is an execution order of the tree's tasks.
type TaskSchedule = tree.Schedule

// Result reports the traversal produced by an algorithm.
type Result = core.Result

// Algorithm names one of the paper's scheduling strategies.
type Algorithm = core.Algorithm

// None marks the root's parent in a parent vector.
const None = tree.None

// The algorithms compared in the paper's evaluation (Section 6).
const (
	// OptMinMem schedules with Liu's optimal peak-memory traversal and
	// pays Furthest-in-Future I/Os.
	OptMinMem = core.OptMinMem
	// PostOrderMinIO is Agullo's best postorder for the I/O volume.
	PostOrderMinIO = core.PostOrderMinIO
	// PostOrderMinMem is Liu's best postorder for peak memory.
	PostOrderMinMem = core.PostOrderMinMem
	// NaturalPostOrder is the naive construction-order postorder.
	NaturalPostOrder = core.NaturalPostOrder
	// RecExpand is the paper's heuristic with expansion budget 2.
	RecExpand = core.RecExpand
	// FullRecExpand is the unbounded expansion heuristic (Algorithm 2).
	FullRecExpand = core.FullRecExpand
)

// NewTree builds a task tree from a parent vector (parents[i] = consumer of
// i's output, None for the root) and output-data sizes.
func NewTree(parents []int, weights []int64) (*Tree, error) {
	return tree.New(parents, weights)
}

// Schedule runs the given algorithm on t under memory bound M and returns
// its traversal and I/O volume.
func Schedule(t *Tree, M int64, alg Algorithm) (*Result, error) {
	return core.Run(alg, t, M)
}

// Tuning carries the expansion-engine knobs that trade wall-clock against
// memory without ever changing results — the library counterparts of the
// -workers and -cache-budget flags of cmd/sched and cmd/minio-bench.
type Tuning struct {
	// Workers is the number of shards of the expansion heuristics'
	// initial profile warm: 0 = auto (GOMAXPROCS on trees of at least
	// 4096 nodes, else 1), 1 = sequential. The expansion walk itself is
	// always sequential.
	Workers int
	// CacheBudget bounds the resident bytes of the engine's profile
	// caches; clean profiles beyond it are evicted and recomputed on
	// demand (10⁷-node trees schedule in a flat memory envelope).
	// 0 = unlimited.
	CacheBudget int64
	// Ctx cancels a run cooperatively: a cancelled context makes
	// ScheduleTuned/ScheduleStreamed return Ctx.Err() promptly (checked
	// per expansion iteration and per streamed segment) with the engine
	// left re-runnable. nil disables cancellation. Unlike the other
	// knobs, Ctx can change the outcome — from a result to an error —
	// but never the result of a run it lets complete.
	Ctx context.Context
	// CheckpointPath arms durable checkpointing of the expansion
	// heuristics: the engine atomically persists its decision log and
	// frontier to this file at quiescent points, so a run killed at any
	// instant resumes via ResumeFrom with a bit-identical result.
	// Empty disarms (and costs nothing). Only RecExpand/FullRecExpand
	// checkpoint; the closed-form algorithms complete too fast to need
	// it.
	CheckpointPath string
	// CheckpointInterval is the number of checkpointable events between
	// durable writes when CheckpointPath is set; 0 means the engine
	// default (256).
	CheckpointInterval int
	// ResumeFrom resumes from a checkpoint written by a previous run of
	// the SAME instance and algorithm (enforced by fingerprint). Empty
	// disables resuming.
	ResumeFrom string
}

// runner builds the core.Runner carrying tn's settings.
func (tn Tuning) runner() *core.Runner {
	rn := core.NewRunner(tn.Workers)
	rn.CacheBudget = tn.CacheBudget
	rn.Ctx = tn.Ctx
	rn.CheckpointPath = tn.CheckpointPath
	rn.CheckpointInterval = tn.CheckpointInterval
	rn.ResumeFrom = tn.ResumeFrom
	return rn
}

// ScheduleTuned is Schedule with explicit engine tuning. The result is
// bit-identical to Schedule's for every Tuning value.
func ScheduleTuned(t *Tree, M int64, alg Algorithm, tn Tuning) (*Result, error) {
	return tn.runner().Run(alg, t, M)
}

// ScheduleStreamed is ScheduleTuned for out-of-core scale: instead of
// materializing the n-word Result.Schedule, the traversal is handed to
// yield segment by segment in execution order (each segment aliases a
// reusable chunk, valid only during the call — write it out or fold it
// immediately; WriteSchedule streams it to an io.Writer). Only the
// expansion heuristics (RecExpand, FullRecExpand) support streaming. The
// returned Result carries a nil Schedule; IO and Peak are bit-identical
// to ScheduleTuned's, and the streamed segments concatenate to exactly
// its Schedule. See DESIGN.md §2.8 for why this is the path that opens
// >10⁸-node trees: the engine checks and emits the schedule segment by
// segment, so no n-word answer is ever resident.
func ScheduleStreamed(t *Tree, M int64, alg Algorithm, tn Tuning, yield func(seg []int) bool) (*Result, error) {
	if alg != RecExpand && alg != FullRecExpand {
		return nil, fmt.Errorf("repro: ScheduleStreamed supports RecExpand and FullRecExpand, not %q", alg)
	}
	return tn.runner().RunStream(alg, t, M, yield)
}

// WriteSchedule streams a schedule to w, one node id per line, consuming
// it segment by segment from source — the io counterpart of
// ScheduleStreamed (a materialized TaskSchedule streams through its Emit
// method). It returns the number of ids written.
func WriteSchedule(w io.Writer, source func(yield func(seg []int) bool) bool) (int64, error) {
	return tree.WriteSchedule(w, source)
}

// ReadSchedule reads a schedule written by WriteSchedule. It is lenient:
// trailers and comments are skipped, so partial streams parse to their
// prefix.
func ReadSchedule(r io.Reader) (TaskSchedule, error) {
	return tree.ReadSchedule(r)
}

// ErrTruncatedSchedule marks a schedule stream that did not run to
// completion; WriteSchedule errors and ReadScheduleStrict rejections wrap
// it (test with errors.Is).
var ErrTruncatedSchedule = tree.ErrTruncatedSchedule

// ReadScheduleStrict reads a schedule written by WriteSchedule and rejects
// any stream that lacks the "# end count=N" completeness trailer or whose
// id count disagrees with it, so a stream from a killed run can never pass
// for a complete one.
func ReadScheduleStrict(r io.Reader) (TaskSchedule, error) {
	return tree.ReadScheduleStrict(r)
}

// WriteScheduleAt is WriteSchedule for resuming an interrupted emission:
// the first skip ids of the source are consumed without being written
// (they are already on disk) and the completeness trailer counts
// absolutely, so the repaired partial stream plus this continuation is
// byte-identical to an uninterrupted WriteSchedule run.
func WriteScheduleAt(w io.Writer, skip int64, source func(yield func(seg []int) bool) bool) (int64, error) {
	return tree.WriteScheduleAt(w, skip, source)
}

// RepairSchedule trims a partial schedule stream in place to its longest
// trusted prefix — dropping a torn final line, a truncation marker, or a
// miscounting trailer — and returns how many ids survive and whether the
// stream was already complete. The surviving prefix is exactly what a
// WriteScheduleAt continuation should skip.
func RepairSchedule(path string) (ids int64, complete bool, err error) {
	return tree.RepairScheduleFile(path)
}

// ErrCheckpointMismatch marks a resume whose checkpoint belongs to a
// different instance (tree, memory bound, algorithm parameters); test
// with errors.Is.
var ErrCheckpointMismatch = expand.ErrCheckpointMismatch

// MinMemory returns LB = max_i w̄(i), the smallest memory size for which
// the tree can be processed at all.
func MinMemory(t *Tree) int64 { return t.MaxWBar() }

// OptimalPeak returns the minimum in-core peak memory over all traversals
// (Liu's algorithm); with M ≥ OptimalPeak(t) no I/O is ever needed.
func OptimalPeak(t *Tree) int64 { return liu.MinMemPeak(t) }

// OptimalPeakSchedule returns a traversal achieving OptimalPeak.
func OptimalPeakSchedule(t *Tree) (TaskSchedule, int64) { return liu.MinMem(t) }

// BestPostorder returns the postorder minimizing the I/O volume under M
// (Agullo's algorithm) along with its I/O volume.
func BestPostorder(t *Tree, M int64) (TaskSchedule, int64) {
	sched, io, _ := postorder.MinIO(t, M)
	return sched, io
}

// IOVolume evaluates an arbitrary topological schedule under M using the
// Furthest-in-Future paging policy, which is optimal for a fixed schedule
// (Theorem 1 of the paper).
func IOVolume(t *Tree, M int64, sched TaskSchedule) (int64, error) {
	return memsim.IOOf(t, M, sched)
}

// PeakMemory returns the in-core peak of a schedule (its memory need when
// no paging is allowed).
func PeakMemory(t *Tree, sched TaskSchedule) (int64, error) {
	return memsim.Peak(t, sched)
}

// ScheduleForIO computes a schedule valid for a prescribed I/O function τ,
// if one exists (Theorem 2 of the paper).
func ScheduleForIO(t *Tree, M int64, tau []int64) (TaskSchedule, error) {
	return expand.ScheduleForIO(t, M, tau)
}

// Compute produces a task's output bytes from its children's outputs; see
// Execute.
type Compute = oocexec.Compute

// ExecStats reports the realized data movement of an execution.
type ExecStats = oocexec.Stats

// ExecConfig tunes the byte-level executor (unit size, spill directory).
type ExecConfig = oocexec.Config

// Execute actually runs the computation out-of-core: real byte buffers,
// paging to a spill store, Furthest-in-Future evictions. One weight unit
// is ExecConfig.UnitSize bytes. It returns the root task's output.
func Execute(t *Tree, M int64, sched TaskSchedule, cfg ExecConfig, f Compute) ([]byte, ExecStats, error) {
	return oocexec.Execute(t, M, sched, cfg, f)
}

// Version identifies the reproduction release.
const Version = "1.0.0"
