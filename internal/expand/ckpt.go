// Durable checkpoint/resume for the expansion engine (DESIGN.md §2.10).
//
// A checkpoint is the decision log plus a frontier cursor — never caches
// or other derived state. Expansion is deterministic and mutable-tree ids
// are assigned in Expand-call order, so replaying the logged
// (victim, amount) pairs onto a fresh NewMutable(t) reconstructs the
// exact expanded tree, and the walk can continue from the recorded
// postorder cursor as if the kill never happened.
package expand

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/tree"
)

// Local names for the ckpt types the walk code touches, so only this file
// imports the format package.
type ckptState = ckpt.State

const ckptPhaseFinish = ckpt.PhaseFinish

// ErrCheckpointMismatch is returned by a resume whose checkpoint does not
// belong to the live instance: a different tree, bound, victim policy or
// expansion budget (detected by fingerprint), or a log that does not
// apply to the tree. Resuming such a checkpoint would silently compute
// garbage, so it fails loudly instead.
var ErrCheckpointMismatch = errors.New("expand: checkpoint does not match this instance")

// defaultCkptInterval is the events-per-write default of
// CheckpointOptions.Interval, chosen so checkpoint-armed runs stay within
// a few percent of disarmed ones (see BenchmarkRecExpandStreamCkptOverhead200k).
const defaultCkptInterval = 256

// ckptAfterWrite, when non-nil, is invoked after every successful durable
// checkpoint write with the checkpoint path. It exists for the
// kill-anywhere tests, which snapshot the file at each write and resume
// from every snapshot; production runs leave it nil.
var ckptAfterWrite func(path string)

// ckptRunner accumulates the durable state of one checkpoint-armed run
// and writes it at quiescent points. All methods run on the goroutine
// driving the walk, so no locking is needed. A nil *ckptRunner disarms
// every hook.
type ckptRunner struct {
	path     string
	interval int
	fp       ckpt.Fingerprint
	n        int // original node count, the cursor of a finished walk

	exps     []ckpt.Exp
	cursor   int
	curIters int
	phase    ckpt.Phase
	capHit   bool
	emitted  int64

	pending int // events since the last durable write
}

// ckptFingerprint computes the live instance's fingerprint with the
// EFFECTIVE global cap (defaults resolved), so a checkpoint taken under
// an explicit cap and one under the equivalent default interoperate.
func ckptFingerprint(t *tree.Tree, M int64, opts Options, globalCap int) ckpt.Fingerprint {
	return ckpt.Fingerprint{
		TreeHash:   ckpt.HashTree(t.Parents(), t.Weights()),
		N:          int64(t.N()),
		M:          M,
		MaxPerNode: int64(opts.MaxPerNode),
		Victim:     int64(opts.Victim),
		GlobalCap:  int64(globalCap),
	}
}

// newCkptRunner arms checkpointing for one run.
func newCkptRunner(t *tree.Tree, M int64, opts Options, globalCap int) *ckptRunner {
	interval := opts.Checkpoint.Interval
	if interval <= 0 {
		interval = defaultCkptInterval
	}
	return &ckptRunner{
		path:     opts.Checkpoint.Path,
		interval: interval,
		fp:       ckptFingerprint(t, M, opts, globalCap),
		n:        t.N(),
	}
}

// seed loads a resumed run's already-replayed state into the runner, so
// the next write carries the full log.
func (ck *ckptRunner) seed(st *ckpt.State) {
	ck.exps = st.Exps
	ck.cursor = st.Cursor
	ck.curIters = st.CurIters
	ck.phase = st.Phase
	ck.capHit = st.CapHit
	ck.emitted = st.EmittedIDs
}

// noteExp logs one applied expansion (victim in the mutable-tree id
// space). Called immediately after a successful Expand, before the
// cursor commit that makes it checkpointable.
func (ck *ckptRunner) noteExp(victim int, amount int64) {
	ck.exps = append(ck.exps, ckpt.Exp{Victim: victim, Amount: amount})
	ck.pending++
}

// commitLoop marks a quiescent point inside the expansion loop of the
// recursion node at natural-postorder index idx: iters iterations are
// complete there and every earlier decision is in the log. Writes a
// checkpoint when the interval is due.
func (ck *ckptRunner) commitLoop(idx, iters int) error {
	ck.cursor = idx
	ck.curIters = iters
	if ck.pending >= ck.interval {
		return ck.write()
	}
	return nil
}

// finishExpand marks the expansion walk complete — every decision is in
// the log, the run is entering final evaluation/emission — and always
// writes: the phase transition is what lets a resume skip the walk (and,
// for streams, is durably on disk before the first id is emitted).
func (ck *ckptRunner) finishExpand(capHit bool) error {
	ck.phase = ckpt.PhaseFinish
	ck.capHit = capHit
	ck.cursor = ck.n
	ck.curIters = 0
	return ck.write()
}

// commitEmit marks n more schedule ids handed to the streaming consumer.
// The count is informational — resume seeks the output stream by what is
// actually on disk, which may be ahead of or behind the checkpoint — but
// the periodic write bounds how much log the checkpoint can lag by.
func (ck *ckptRunner) commitEmit(n int) error {
	ck.emitted += int64(n)
	ck.pending++
	if ck.pending >= ck.interval {
		return ck.write()
	}
	return nil
}

// write durably replaces the checkpoint file with the current state.
func (ck *ckptRunner) write() error {
	st := &ckpt.State{
		FP:         ck.fp,
		Exps:       ck.exps,
		Cursor:     ck.cursor,
		CurIters:   ck.curIters,
		Phase:      ck.phase,
		CapHit:     ck.capHit,
		EmittedIDs: ck.emitted,
	}
	if err := ckpt.WriteFile(ck.path, st); err != nil {
		return fmt.Errorf("expand: writing checkpoint: %w", err)
	}
	ck.pending = 0
	if ckptAfterWrite != nil {
		ckptAfterWrite(ck.path)
	}
	return nil
}

// flushOnCancel is the drain hook of a checkpoint-armed run: when err is a
// context cancellation (a graceful drain, a SIGTERM, a request timeout) or
// a consumer-stopped emission (ErrEmissionStopped — a serving client that
// went away or was sealed for reading too slowly) and events are pending
// since the last durable write, the runner's latest committed state is
// flushed so a resume continues from the interruption point instead of up
// to Interval events earlier. The state written is always a committed
// quiescent one — noteExp/commitLoop/commitEmit keep the in-memory runner
// consistent between events — so the flushed checkpoint is
// indistinguishable from a periodic one. err is returned unchanged; a
// failed flush is ignored, because the previous durable checkpoint remains
// valid and the caller is already failing with the more meaningful
// interruption error. Safe on a nil (disarmed) runner.
func (ck *ckptRunner) flushOnCancel(err error) error {
	if ck == nil || err == nil {
		return err
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, ErrEmissionStopped) {
		return err
	}
	if ck.pending > 0 {
		_ = ck.write()
	}
	return err
}

// loadResume reads and validates the checkpoint a run resumes from. The
// fingerprint must match the live instance exactly; the frontier must be
// inside the tree.
func loadResume(t *tree.Tree, M int64, opts Options, globalCap int) (*ckpt.State, error) {
	st, err := ckpt.ReadFile(opts.ResumeFrom)
	if err != nil {
		return nil, fmt.Errorf("expand: reading checkpoint %s: %w", opts.ResumeFrom, err)
	}
	fp := ckptFingerprint(t, M, opts, globalCap)
	if st.FP != fp {
		return nil, fmt.Errorf("%w: checkpoint fingerprint %+v, live instance %+v", ErrCheckpointMismatch, st.FP, fp)
	}
	if st.Cursor < 0 || st.Cursor > t.N() || st.CurIters < 0 {
		return nil, fmt.Errorf("%w: frontier (cursor=%d iters=%d) outside the tree", ErrCheckpointMismatch, st.Cursor, st.CurIters)
	}
	return st, nil
}

// replayLog re-applies a checkpoint's decision log onto a fresh mutable
// tree. Ids are assigned in Expand-call order on both sides, so the log's
// victim ids land on exactly the nodes the original run expanded; any
// structural disagreement (a victim id the tree has not grown yet, an
// amount the node cannot carry) means the checkpoint belongs to a
// different instance and surfaces as ErrCheckpointMismatch.
func replayLog(m *MutableTree, st *ckpt.State) error {
	for i, ex := range st.Exps {
		if ex.Victim < 0 || ex.Victim >= m.N() || ex.Amount <= 0 {
			return fmt.Errorf("%w: logged expansion %d targets node %d of a %d-node tree", ErrCheckpointMismatch, i, ex.Victim, m.N())
		}
		if _, _, err := m.Expand(ex.Victim, ex.Amount); err != nil {
			return fmt.Errorf("%w: replaying logged expansion %d: %v", ErrCheckpointMismatch, i, err)
		}
	}
	return nil
}
