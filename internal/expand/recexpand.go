package expand

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/liu"
	"repro/internal/memsim"
	"repro/internal/tree"
)

// VictimPolicy selects which node with positive FiF I/O gets expanded at
// each iteration. The paper's choice is LatestParent; the others feed the
// ablation benchmarks.
type VictimPolicy int

const (
	// LatestParent expands the evicted node whose parent is scheduled
	// the latest (the paper's Line 6).
	LatestParent VictimPolicy = iota
	// EarliestParent expands the evicted node whose parent is scheduled
	// the earliest.
	EarliestParent
	// LargestTau expands the node with maximum FiF I/O volume.
	LargestTau
)

// String names the policy.
func (p VictimPolicy) String() string {
	switch p {
	case LatestParent:
		return "LatestParent"
	case EarliestParent:
		return "EarliestParent"
	case LargestTau:
		return "LargestTau"
	}
	return fmt.Sprintf("VictimPolicy(%d)", int(p))
}

// Options tunes the recursive-expansion heuristics.
type Options struct {
	// Ctx cancels a run cooperatively: the engine checks it once per
	// expansion-loop iteration and per streamed segment, and the profile
	// cache polls it during long recompute passes. A cancelled run
	// returns Ctx.Err() (typically context.Canceled) and leaves the
	// engine re-runnable; see cancel.go for the failure model. nil
	// disables cancellation — the zero Options behaves as before.
	Ctx context.Context
	// MaxPerNode caps the number of expansion iterations of the while
	// loop at every recursion node; 0 means unbounded (FULLRECEXPAND).
	// The paper's RECEXPAND uses 2.
	MaxPerNode int
	// Victim selects the expansion victim; the default (zero value) is
	// the paper's latest-scheduled-parent rule.
	Victim VictimPolicy
	// GlobalCap aborts the heuristic after this many expansions in
	// total, as a safety net against the (super-polynomial) worst case
	// of FULLRECEXPAND; 0 means 64·n + 1024.
	GlobalCap int
	// Workers is the number of shards of the initial profile warm
	// (liu.(*ProfileCache).EnsureParallel): 0 means
	// runtime.GOMAXPROCS(0) on trees of at least 4096 nodes and 1
	// below, 1 warms sequentially. The expansion walk itself is always
	// the sequential postorder of Algorithm 2. The Result is
	// bit-identical for every value.
	Workers int
	// CacheBudget bounds the resident bytes of the run's profile cache
	// (liu.CacheOptions.MaxResidentBytes): clean subtree
	// profiles beyond the budget are evicted and recomputed on demand,
	// trading time for a memory footprint that stays flat on 10⁷-node
	// trees. 0 means unlimited. The Result is bit-identical for every
	// budget — eviction is a residency policy, never a semantic one.
	CacheBudget int64
	// Checkpoint arms durable checkpointing: with a non-empty Path the
	// engine persists its decision log and frontier to that file at
	// quiescent points (per expansion, per streamed segment), each write
	// atomic and fsynced, so a run killed at ANY instant can be resumed
	// via ResumeFrom. The zero value disarms
	// checkpointing entirely and adds no allocations to the hot loops.
	// Like Workers and CacheBudget, checkpointing never changes the
	// Result.
	Checkpoint CheckpointOptions
	// VerifyCache makes the engine audit the profile cache's residency,
	// pin and dirtiness invariants (liu.(*ProfileCache).CheckInvariants)
	// after the run completes, folding any violation into the returned
	// error. The certification harness arms it on every run; it costs one
	// O(n) pass after the result is assembled and nothing on the hot
	// loops.
	VerifyCache bool
	// ResumeFrom names a checkpoint file written by a previous run of
	// the SAME instance (tree, M, MaxPerNode, Victim, effective
	// GlobalCap — enforced by fingerprint, see ErrCheckpointMismatch).
	// The engine replays the logged decisions onto a fresh mutable tree
	// — no re-simulation — and continues the walk from the recorded
	// frontier, producing a Result bit-identical to an uninterrupted
	// run. Non-semantic knobs (Workers, CacheBudget, Checkpoint) may
	// differ freely between the original and resumed runs. Empty
	// disables resuming.
	ResumeFrom string
}

// CheckpointOptions configures Options.Checkpoint.
type CheckpointOptions struct {
	// Path is the checkpoint file; every durable write atomically
	// replaces it. Empty disarms checkpointing.
	Path string
	// Interval is the number of checkpointable events (logged
	// expansions, streamed segments) between durable writes; 0 means
	// the default of 256. 1 checkpoints at every event. Phase
	// transitions always force a write regardless of the interval.
	Interval int
}

// cacheOptions is the liu residency and cancellation policy the engine
// derives from Options: the run's cache shares its cancellation signal,
// so ensure-heavy phases (warms, schedule flattens)
// stop within one poll interval of the context being cancelled.
func (o Options) cacheOptions() liu.CacheOptions {
	return liu.CacheOptions{MaxResidentBytes: o.CacheBudget, Done: ctxDone(o.Ctx)}
}

// Result is the outcome of a recursive-expansion heuristic.
type Result struct {
	// Schedule is a topological schedule of the ORIGINAL tree (the
	// expanded-tree OptMinMem schedule transposed to primary nodes).
	Schedule tree.Schedule
	// IO is the heuristic's declared I/O volume: ExpansionIO plus
	// ResidualIO (the paper's accounting).
	IO int64
	// ExpansionIO is the sum of all expansion amounts.
	ExpansionIO int64
	// ResidualIO is the FiF I/O of the final expanded tree under M;
	// zero for FULLRECEXPAND unless GlobalCap was hit.
	ResidualIO int64
	// SimulatedIO is the FiF I/O volume of Schedule on the original
	// tree — never worse than IO, since immediate writes dominate the
	// delayed writes that expansion encodes.
	SimulatedIO int64
	// SimulatedPeak is the peak demand of that same simulation of
	// Schedule on the original tree under M (the memsim.Result.Peak of
	// the run that produced SimulatedIO); callers evaluating the
	// heuristic need not re-simulate.
	SimulatedPeak int64
	// Expansions is the number of expansion operations performed.
	Expansions int
	// CapHit reports that GlobalCap stopped the expansion loop early.
	CapHit bool
	// FinalPeak is the OptMinMem peak of the final expanded tree.
	FinalPeak int64
}

// FullRecExpand runs the paper's FULLRECEXPAND heuristic (Algorithm 2):
// recursively make every subtree schedulable without I/O by repeatedly
// running OPTMINMEM and expanding one FiF-evicted node per iteration.
func FullRecExpand(t *tree.Tree, M int64) (*Result, error) {
	return RecExpand(t, M, Options{MaxPerNode: 0})
}

// RecExpandDefault runs the paper's RECEXPAND variant, whose per-node
// expansion loop is cut after 2 iterations.
func RecExpandDefault(t *tree.Tree, M int64) (*Result, error) {
	return RecExpand(t, M, Options{MaxPerNode: 2})
}

// RecExpand runs the recursive-expansion heuristic with explicit options,
// on the incremental engine: the mutable tree keeps a memoized Liu profile
// per subtree (recomputing only the dirty root-path after each expansion)
// and the inner Furthest-in-the-Future evaluations run allocation-free on
// a reusable simulator, directly on the mutable tree — no per-iteration
// subtree extraction, no from-scratch OPTMINMEM. Options.Workers shards
// only the initial profile warm. Results are bit-identical to
// ReferenceRecExpand, the frozen extract-and-rescan engine, for every
// option setting.
func RecExpand(t *tree.Tree, M int64, opts Options) (*Result, error) {
	return NewEngine().RecExpand(t, M, opts)
}

// Engine owns the reusable scratch of the expansion heuristics: the
// allocation-free simulators, the flattened-schedule buffer and the
// BFS-rank buffer. Reusing one Engine across many RecExpand calls (as the
// experiment runner does, one per worker) avoids re-growing that scratch
// per instance. An Engine is not safe for concurrent use.
type Engine struct {
	sim     *memsim.Simulator // the expanded tree's FiF evaluations
	prim    *memsim.Simulator // the finish's original-tree FiF evaluation
	sched   []int             // reusable flattened-schedule scratch
	bfsPos  []int32           // reusable BFS-rank scratch (LargestTau ties only)
	primBuf []int             // reusable primary-filter chunk (finish)

	cacheStats liu.CacheStats // profile-cache counters of the last run
}

// CacheStats returns the profile-cache residency counters of the engine's
// most recent RecExpand run. Budget calibration reads PeakResidentBytes
// here; the counters are not
// part of Result so that the differential bit-identity tests can keep
// comparing full Result values across engines and budgets.
func (e *Engine) CacheStats() liu.CacheStats { return e.cacheStats }

// NewEngine returns an engine with empty scratch; buffers grow on first
// use and are retained across calls.
func NewEngine() *Engine {
	return &Engine{sim: memsim.NewSimulator(), prim: memsim.NewSimulator()}
}

// RecExpand is the Engine-bound form of the package-level RecExpand: a
// collector over RecExpandStream that appends the streamed segments to
// Result.Schedule. A panic that reaches this boundary (an injected fault,
// an invariant violation) is recovered into a typed PanicError instead of
// crashing the process; the engine stays re-runnable.
func (e *Engine) RecExpand(t *tree.Tree, M int64, opts Options) (*Result, error) {
	sched := make(tree.Schedule, 0, t.N())
	res, err := e.RecExpandStream(t, M, opts, func(seg []int) bool {
		sched = append(sched, seg...)
		return true
	})
	if err != nil {
		return nil, err
	}
	res.Schedule = sched
	return res, nil
}

// RecExpandStream is RecExpand for out-of-core-scale trees: instead of
// materializing Result.Schedule (an n-word slice), the final original-tree
// schedule is streamed to yield segment by segment, in traversal order.
// Each yielded segment aliases a reusable chunk, valid only for the
// duration of the call — write it out (tree.WriteSchedule) or fold it
// immediately. The returned Result carries a nil Schedule; every other
// field (IO, expansion accounting, SimulatedIO/SimulatedPeak, CapHit) is
// the Result RecExpand returns, and the streamed segments concatenate to
// exactly its Schedule: RecExpand is this call plus an appending
// collector. The schedule is never held whole, so the finish adds
// O(segment) memory beyond the engine's node-indexed scratch (DESIGN.md
// §2.8).
//
// If yield returns false the run aborts and returns ErrEmissionStopped.
// A panic reaching this boundary is recovered into a typed PanicError.
// With Options.Ctx set, cancellation is additionally checked between
// streamed segments, so a consumer blocked on slow output storage still
// observes it promptly.
func (e *Engine) RecExpandStream(t *tree.Tree, M int64, opts Options, yield func(seg []int) bool) (res *Result, err error) {
	defer containPanic(&err)
	m, capHit, ck, err := e.expandTree(t, M, opts)
	if err != nil {
		return nil, err
	}
	res, err = e.finish(opts.Ctx, t, m, M, capHit, ck, yield)
	if err == nil && opts.VerifyCache {
		if verr := m.CheckProfileInvariants(); verr != nil {
			return nil, fmt.Errorf("expand: post-run cache audit: %w", verr)
		}
	}
	return res, err
}

// expandTree runs the expansion phase — everything up to, but not
// including, the final schedule emission — and returns the expanded
// mutable tree plus the run's checkpoint runner (nil unless
// Options.Checkpoint arms one). Shared by the materializing and streaming
// entry points.
func (e *Engine) expandTree(t *tree.Tree, M int64, opts Options) (*MutableTree, bool, *ckptRunner, error) {
	if lb := t.MaxWBar(); M < lb {
		return nil, false, nil, fmt.Errorf("expand: M=%d below LB=%d", M, lb)
	}
	globalCap := opts.GlobalCap
	if globalCap == 0 {
		globalCap = 64*t.N() + 1024
	}
	var resume *ckptState
	if opts.ResumeFrom != "" {
		st, err := loadResume(t, M, opts, globalCap)
		if err != nil {
			return nil, false, nil, err
		}
		resume = st
	}
	var ck *ckptRunner
	if opts.Checkpoint.Path != "" {
		ck = newCkptRunner(t, M, opts, globalCap)
	}
	m := NewMutable(t)
	// The simulator runs on m as it grows: size it for m's room at once.
	e.sim.Reserve(cap(m.parent))
	m.EnableProfilesOpts(opts.cacheOptions())
	capHit := false

	// Skipping initially fitting subtrees wholesale is what keeps the
	// recursion linear on deep trees; see InitialPeaks for why the skip
	// must use these initial peaks and nothing else. On resume the warm
	// runs on the PRISTINE tree, before any logged decision is replayed —
	// the skip decisions are defined on the initial peaks.
	initialPeaks := m.InitialPeaks(warmShards(t, opts.Workers))
	// A cancellation during the warm leaves initialPeaks partially
	// computed (the cache bails between recomputes); bail before any
	// skip decision reads them.
	if err := ctxErr(opts.Ctx); err != nil {
		return nil, false, nil, ck.flushOnCancel(err)
	}

	startIdx := 0
	if resume != nil {
		if err := replayLog(m, resume); err != nil {
			return nil, false, nil, err
		}
		if ck != nil {
			ck.seed(resume)
		}
		if resume.Phase == ckptPhaseFinish {
			// The walk had already completed; only the final
			// evaluation/emission remains, and it is a pure function of
			// the replayed tree.
			if ck != nil {
				if err := ck.finishExpand(resume.CapHit); err != nil {
					return nil, false, nil, err
				}
			}
			return m, resume.CapHit, ck, nil
		}
		startIdx = resume.Cursor
	}

	// Post-order walk over the ORIGINAL nodes: the recursion of
	// Algorithm 2 treats children before their parent, and expansions
	// never change which node roots a processed subtree (the FiF never
	// evicts a subtree's own root, as its output is produced last).
	post := t.NaturalPostorder()
	for idx := startIdx; idx < len(post); idx++ {
		r := post[idx]
		if t.IsLeaf(r) {
			continue // a single node never needs I/O (M ≥ LB ≥ w̄)
		}
		if initialPeaks[r] <= M {
			continue
		}
		startIter := 0
		if resume != nil && idx == resume.Cursor {
			// The frontier node re-enters its loop with the iterations the
			// log already covers, so MaxPerNode budgets stay exact.
			startIter = resume.CurIters
		}
		hit, err := e.expandLoop(m, r, idx, M, opts, globalCap, ck, startIter)
		if err != nil {
			return nil, false, nil, ck.flushOnCancel(err)
		}
		if hit {
			capHit = true
			break
		}
	}
	if ck != nil {
		if err := ck.finishExpand(capHit); err != nil {
			return nil, false, nil, err
		}
	}
	return m, capHit, ck, nil
}

// warmShardMinNodes is the auto-mode (Workers == 0) threshold of the
// sharded warm: smaller trees warm sequentially, since starting the
// warmers would cost more than the warm itself.
const warmShardMinNodes = 4096

// warmShards resolves Options.Workers to the shard count of the initial
// profile warm.
func warmShards(t *tree.Tree, workers int) int {
	if workers != 0 {
		return workers
	}
	if t.N() < warmShardMinNodes {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// expandLoop runs the while-loop of Algorithm 2 at recursion node r of m,
// the node at natural-postorder index idx of the original tree:
// repeatedly reschedule r's subtree, simulate it under M with FiF eviction
// and expand one victim, until the subtree fits, the per-node budget is
// spent or the global cap trips; it reports whether the cap tripped, in
// which case the caller must set CapHit and abort the whole postorder
// walk. When ck is non-nil each applied expansion is logged and
// cursor-committed to the checkpoint runner (the hook is nil-guarded, so
// the disarmed loop stays allocation-free). startIter seeds the iteration
// counter — a resumed frontier node re-enters its loop where the log left
// off; every other node starts at 0.
func (e *Engine) expandLoop(m *MutableTree, r, idx int, M int64, opts Options, globalCap int, ck *ckptRunner, startIter int) (capHit bool, err error) {
	iter := startIter
	for {
		// One check per iteration: each iteration reschedules and
		// re-simulates a whole subtree, so the select is noise — and a
		// cancelled cache makes the flatten below unusable anyway.
		if err := ctxErr(opts.Ctx); err != nil {
			return false, err
		}
		if opts.MaxPerNode > 0 && iter >= opts.MaxPerNode {
			return false, nil
		}
		if m.Expansions() >= globalCap {
			return true, nil
		}
		if m.SubtreePeak(r) <= M {
			return false, nil
		}
		e.sched = m.AppendMinMemSchedule(r, e.sched[:0])
		if _, _, err := e.sim.Run(m, r, M, e.sched, memsim.FiF); err != nil {
			return false, mapErr(opts.Ctx, fmt.Errorf("expand: simulating subtree of %d: %w", r, err))
		}
		if opts.Victim == LargestTau {
			e.bfsPos = m.appendBFSRanks(r, e.bfsPos)
		}
		victim := pickVictimInPlace(m, r, e.sim.Positions(), e.sim.Tau(), e.sched, e.bfsPos, opts.Victim)
		if victim < 0 {
			return false, mapErr(opts.Ctx, fmt.Errorf("expand: subtree of %d overflows M=%d but FiF evicted nothing", r, M))
		}
		amount := e.sim.Tau()[victim]
		if _, _, err := m.Expand(victim, amount); err != nil {
			return false, mapErr(opts.Ctx, err)
		}
		iter++
		if ck != nil {
			ck.noteExp(victim, amount)
			if err := ck.commitLoop(idx, iter); err != nil {
				return false, err
			}
		}
	}
}

// ErrEmissionStopped is returned by RecExpandStream when the caller's
// yield function stopped the emission before the schedule was complete.
var ErrEmissionStopped = errors.New("expand: schedule emission stopped by consumer")

// finish is Algorithm 2's close: two FiF evaluations of the final
// schedule, in lockstep on two simulators. The expanded-tree simulation
// (e.sim) gives ResidualIO, the residual τ Theorem 1 makes optimal for the
// fixed σ; the original-tree simulation (e.prim) runs on that schedule
// filtered to primary nodes in original ids, gives SimulatedIO and
// SimulatedPeak, and rejects any stream that is not a topological
// permutation of t. Both simulators take the same two walks of the
// expanded tree's emission: the first indexes both, the second steps both
// and hands each primary segment to yield after it has been simulated,
// committing emission progress to the checkpoint runner. Cancellation is
// checked per segment of either walk.
func (e *Engine) finish(ctx context.Context, t *tree.Tree, m *MutableTree, M int64, capHit bool, ck *ckptRunner, yield func(seg []int) bool) (*Result, error) {
	root := m.Root()
	peak := m.SubtreePeak(root)
	simErr := func(label string, err error) error {
		return mapErr(ctx, fmt.Errorf("expand: simulating %s: %w", label, err))
	}
	walk := func(pass func(*memsim.Simulator, []int) error, out bool) (err error) {
		m.EmitMinMemSchedule(root, func(seg []int) bool {
			if err = ctxErr(ctx); err != nil {
				return false
			}
			if perr := pass(e.sim, seg); perr != nil {
				err = simErr("final tree", perr)
				return false
			}
			if seg = e.primary(m, seg); len(seg) == 0 {
				return true
			}
			if perr := pass(e.prim, seg); perr != nil {
				err = simErr("transposed schedule", perr)
				return false
			}
			if !out {
				return true
			}
			if yield != nil && !yield(seg) {
				err = ErrEmissionStopped
				return false
			}
			// The segment is in the consumer's hands: a quiescent point
			// of the emission (every K segments hits disk).
			if ck != nil {
				err = ck.commitEmit(len(seg))
			}
			return err == nil
		})
		return err
	}
	e.sim.Begin(m, root, M, memsim.FiF)
	e.prim.Begin(t, t.Root(), M, memsim.FiF)
	err := walk((*memsim.Simulator).Index, false)
	if err == nil {
		err = walk((*memsim.Simulator).Step, true)
	}
	// End both on every exit: it drops the simulators' references to m and t.
	finalIO, _, ferr := e.sim.End()
	simIO, simPeak, serr := e.prim.End()
	switch {
	case err != nil:
	case ferr != nil:
		err = simErr("final tree", ferr)
	case serr != nil:
		err = simErr("transposed schedule", serr)
	}
	if err != nil {
		// A stopped consumer or a cancellation flushes the committed state
		// (emission progress included) so the interrupted run is
		// resumable — the slow-client seal path of the serving layer.
		return nil, ck.flushOnCancel(err)
	}
	e.cacheStats = m.ProfileStats()
	return &Result{
		IO:            m.ExpansionIO() + finalIO,
		ExpansionIO:   m.ExpansionIO(),
		ResidualIO:    finalIO,
		SimulatedIO:   simIO,
		SimulatedPeak: simPeak,
		Expansions:    m.Expansions(),
		CapHit:        capHit,
		FinalPeak:     peak,
	}, nil
}

// primary filters seg, a segment of the expanded tree's emission, down to
// its primary nodes in original-tree ids, in the engine's reusable chunk
// (sized once to the segment, which holds at most that many).
func (e *Engine) primary(m *MutableTree, seg []int) []int {
	buf := e.primBuf[:0]
	if cap(buf) < len(seg) {
		buf = make([]int, 0, len(seg))
	}
	for _, v := range seg {
		if m.role[v] == RolePrimary {
			buf = append(buf, m.orig[v])
		}
	}
	e.primBuf = buf
	return buf
}

// appendBFSRanks fills bfsPos (grown as needed, indexed by mutable id) with
// the BFS rank of every node of r's subtree — the id an extracted copy
// would assign. Entries of nodes outside the subtree are stale and must not
// be read.
func (m *MutableTree) appendBFSRanks(r int, bfsPos []int32) []int32 {
	for len(bfsPos) < m.N() {
		bfsPos = append(bfsPos, 0)
	}
	nodes := m.SubtreeNodes(r)
	for k, v := range nodes {
		bfsPos[v] = int32(k)
	}
	return bfsPos
}

// pickVictimInPlace is pickVictim operating directly on the mutable tree:
// candidates are read off the flattened subtree schedule (mutable ids), pos
// and tau come from the simulator's scratch. Tie-breaking reproduces the
// extracted-subtree rule: for the parent-position policies, equal keys mean
// siblings and the child-list rank stands in for the extracted id; for
// LargestTau, equal τ across arbitrary nodes falls back to the BFS rank of
// the subtree (the extracted id itself).
func pickVictimInPlace(m *MutableTree, r int, pos []int32, tau []int64, sched []int, bfsPos []int32, policy VictimPolicy) int {
	best := -1
	var bestKey, bestTau int64
	for _, i := range sched {
		ti := tau[i]
		if ti <= 0 {
			continue
		}
		var key int64
		switch policy {
		case LatestParent:
			key = int64(pos[m.Parent(i)])
		case EarliestParent:
			key = -int64(pos[m.Parent(i)])
		case LargestTau:
			key = ti
		}
		var better bool
		if best == -1 || key > bestKey {
			better = true
		} else if key == bestKey {
			if ti > bestTau {
				better = true
			} else if ti == bestTau {
				// Equal key and τ: the reference engine prefers the
				// smaller extracted id. Under the parent-position
				// policies equal keys mean same parent, so the child
				// rank decides; under LargestTau compare BFS ranks.
				if policy == LargestTau {
					better = bfsPos[i] < bfsPos[best]
				} else {
					better = m.rank[i] < m.rank[best]
				}
			}
		}
		if better {
			best, bestKey, bestTau = i, key, ti
		}
	}
	return best
}

// pickVictim returns the node of sub with positive τ selected by the
// policy, or -1 if τ is identically zero. pos must be the schedule's
// position array (sched.Positions), computed once by the caller and shared
// with the other per-iteration consumers. For LatestParent (the paper's
// rule) ties on the parent position — possible between siblings — are
// broken towards the larger τ, then the smaller node id.
func pickVictim(sub *tree.Tree, pos []int, tau []int64, policy VictimPolicy) int {
	best := -1
	var bestKey, bestTau int64
	for i, ti := range tau {
		if ti <= 0 {
			continue
		}
		var key int64
		switch policy {
		case LatestParent:
			key = int64(pos[sub.Parent(i)])
		case EarliestParent:
			key = -int64(pos[sub.Parent(i)])
		case LargestTau:
			key = ti
		}
		better := best == -1 || key > bestKey ||
			(key == bestKey && (ti > bestTau || (ti == bestTau && i < best)))
		if better {
			best, bestKey, bestTau = i, key, ti
		}
	}
	return best
}
