package cert

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"repro/internal/expand"
	"repro/internal/liu"
	"repro/internal/memsim"
	"repro/internal/postorder"
	"repro/internal/tree"
)

// CheckProperties runs the metamorphic and invariance properties that
// need no exhaustive oracle, so they apply to instances far beyond brute
// range. It returns a *Divergence error naming the violated property, a
// skip error (see IsSkip) for infeasible instances, and nil when every
// property holds.
//
// The properties: across a ladder of memory bounds from LB to the
// optimal in-core peak, the best-postorder I/O volume and the FiF I/O of
// any FIXED schedule are monotone non-increasing in M (both
// theorem-backed; the heuristic's own I/O is deliberately NOT asserted
// monotone — RecExpand's budgeted expansion is demonstrably non-monotone
// in M on the Figure 2(c) family); each engine run's schedule is valid
// and re-simulates to exactly the declared (I/O, peak) — via
// memsim.ScoreSchedule — and executes through oocexec moving exactly that
// I/O, with a FiF τ satisfying the paper's validity conditions; at M
// equal to the peak the run is I/O-free with zero expansions; and at the
// instance's own bound the Result is bit-identical across the streamed
// finish, Workers, CacheBudget, checkpointing and checkpoint-resume. Every
// engine run is made with the post-run profile-cache audit armed
// (expand.Options.VerifyCache).
func CheckProperties(ctx context.Context, inst Instance) error {
	t := inst.Tree
	if t == nil {
		return fmt.Errorf("cert: instance has no tree")
	}
	lb := t.MaxWBar()
	if inst.M < lb {
		return fmt.Errorf("%w: M=%d < LB=%d", ErrInfeasible, inst.M, lb)
	}
	fail := func(check, format string, args ...any) error {
		return &Divergence{Check: check, Detail: fmt.Sprintf(format, args...), Inst: inst}
	}
	peak := liu.MinMemPeak(t)

	run := func(M int64, o expand.Options) (*expand.Result, error) {
		o.Ctx = ctx
		o.VerifyCache = true
		if o.MaxPerNode == 0 {
			o.MaxPerNode = 2
		}
		if o.Workers == 0 {
			o.Workers = 1
		}
		res, err := expand.RecExpand(t, M, o)
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fail("prop-engine-error", "engine failed at M=%d: %v", M, err)
		}
		return res, nil
	}

	// consistent checks one run's self-consistency: schedule validity,
	// declared == re-simulated via the scoring hook, executed ==
	// simulated, and a valid FiF τ.
	consistent := func(M int64, res *expand.Result) error {
		if err := tree.Validate(t, res.Schedule); err != nil {
			return fail("prop-schedule-invalid", "M=%d: %v", M, err)
		}
		score, err := memsim.ScoreSchedule(t, M, res.Schedule)
		if err != nil {
			return fail("prop-score", "M=%d: %v", M, err)
		}
		if score.IO != res.SimulatedIO || score.Peak != res.SimulatedPeak {
			return fail("prop-resim", "M=%d: declared (io=%d, peak=%d), scored (io=%d, peak=%d)",
				M, res.SimulatedIO, res.SimulatedPeak, score.IO, score.Peak)
		}
		if score.Bounded != (res.SimulatedIO == 0) {
			return fail("prop-score-bounded", "M=%d: Bounded=%v with io=%d", M, score.Bounded, res.SimulatedIO)
		}
		if check, detail := executed(t, M, res.Schedule, res.SimulatedIO, ""); check != "" {
			return fail("prop-"+check, "M=%d: %s", M, detail)
		}
		sim, err := memsim.Run(t, M, res.Schedule, memsim.FiF)
		if err != nil {
			return fail("prop-resim", "M=%d: %v", M, err)
		}
		if err := memsim.Validate(t, M, res.Schedule, sim.Tau); err != nil {
			return fail("prop-tau-invalid", "M=%d: FiF traversal fails validity: %v", M, err)
		}
		if res.SimulatedIO > res.IO {
			return fail("prop-accounting", "M=%d: simulated I/O %d exceeds declared %d", M, res.SimulatedIO, res.IO)
		}
		if res.IO != res.ExpansionIO+res.ResidualIO {
			return fail("prop-accounting", "M=%d: IO %d != ExpansionIO %d + ResidualIO %d",
				M, res.IO, res.ExpansionIO, res.ResidualIO)
		}
		return nil
	}

	// The M-ladder: LB, the instance's bound, a midpoint, and the peak.
	// Two monotone quantities are tracked along it — the best-postorder
	// volume (minimum over a fixed schedule class, Theorem 3's algorithm)
	// and the FiF I/O of one fixed reference schedule (Theorem 1:
	// furthest-in-future is optimal per schedule, and more memory never
	// hurts a fixed schedule). The heuristic's own I/O is checked for
	// consistency at every rung but NOT for monotonicity: its budgeted
	// expansion genuinely rises with M on Figure 2(c) instances.
	ladder := []int64{lb, inst.M, lb + (peak-lb)/2, peak}
	sort.Slice(ladder, func(i, j int) bool { return ladder[i] < ladder[j] })
	refSched := inst.Tree.NaturalPostorder()
	prevPoV, prevRefIO := int64(-1), int64(-1)
	var prevM int64
	for i, M := range ladder {
		if i > 0 && M == ladder[i-1] {
			continue
		}
		res, err := run(M, expand.Options{})
		if err != nil {
			return err
		}
		if err := consistent(M, res); err != nil {
			return err
		}
		_, poV, _ := postorder.MinIO(t, M)
		refIO, err := memsim.IOOf(t, M, refSched)
		if err != nil {
			return fail("prop-ref-schedule", "M=%d: %v", M, err)
		}
		if prevPoV >= 0 && poV > prevPoV {
			return fail("prop-monotone-postorder", "best-postorder I/O rose from %d at M=%d to %d at M=%d",
				prevPoV, prevM, poV, M)
		}
		if prevRefIO >= 0 && refIO > prevRefIO {
			return fail("prop-monotone-fixed", "fixed-schedule FiF I/O rose from %d at M=%d to %d at M=%d",
				prevRefIO, prevM, refIO, M)
		}
		prevPoV, prevRefIO, prevM = poV, refIO, M
		if M >= peak && (res.SimulatedIO != 0 || res.Expansions != 0) {
			return fail("prop-peak-io", "M=%d >= peak %d yet io=%d with %d expansions",
				M, peak, res.SimulatedIO, res.Expansions)
		}
	}

	// Invariance battery at the instance's own bound: the Result must be
	// bit-identical however the run is executed.
	base, err := run(inst.M, expand.Options{})
	if err != nil {
		return err
	}
	if err := consistent(inst.M, base); err != nil {
		return err
	}
	for _, v := range []struct {
		name string
		opts expand.Options
	}{
		{"workers", expand.Options{Workers: 2}},
		{"cache-budget", expand.Options{CacheBudget: 1}},
	} {
		got, err := run(inst.M, v.opts)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, base) {
			return fail("prop-invariance-"+v.name, "Result diverges from the baseline run")
		}
	}

	// Streamed finish: the segments concatenate to exactly the
	// materialized schedule, and every other Result field agrees.
	var streamed []int
	sres, serr := expand.NewEngine().RecExpandStream(t, inst.M, expand.Options{
		Ctx: ctx, MaxPerNode: 2, Workers: 1, VerifyCache: true,
	}, func(seg []int) bool {
		streamed = append(streamed, seg...)
		return true
	})
	if serr != nil {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return fail("prop-stream-error", "streamed run failed: %v", serr)
	}
	if !reflect.DeepEqual(tree.Schedule(streamed), base.Schedule) {
		return fail("prop-stream-schedule", "streamed segments diverge from the materialized schedule")
	}
	want := *base
	want.Schedule = nil
	if !reflect.DeepEqual(sres, &want) {
		return fail("prop-stream-result", "streamed Result fields diverge from the materialized run")
	}

	// Checkpointing never changes the Result, and resuming from the
	// finished checkpoint reproduces it bit-identically.
	dir, err := os.MkdirTemp("", "cert-ckpt-")
	if err != nil {
		return fmt.Errorf("cert: creating checkpoint scratch: %w", err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.ckpt")
	got, err := run(inst.M, expand.Options{Checkpoint: expand.CheckpointOptions{Path: path, Interval: 1}})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, base) {
		return fail("prop-invariance-checkpoint", "checkpointed Result diverges from the baseline run")
	}
	got, err = run(inst.M, expand.Options{ResumeFrom: path})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, base) {
		return fail("prop-invariance-resume", "Result resumed from a finished checkpoint diverges")
	}
	return nil
}
