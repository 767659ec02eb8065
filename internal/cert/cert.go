package cert

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/brute"
	"repro/internal/expand"
	"repro/internal/liu"
	"repro/internal/memsim"
	"repro/internal/postorder"
	"repro/internal/tree"
)

// ErrInfeasible marks an instance whose memory bound is below the tree's
// LB = max w̄: no traversal exists, so there is nothing to certify. Fuzz
// targets and sweep drivers skip such instances.
var ErrInfeasible = errors.New("cert: memory bound below LB")

// EngineFunc is the heuristic under certification. Production code passes
// nil (meaning expand.RecExpand); the harness's own tests inject broken
// engines here to prove the wall actually catches bugs.
type EngineFunc func(t *tree.Tree, M int64, opts expand.Options) (*expand.Result, error)

// Options tunes a certification run.
type Options struct {
	// Limits bounds the brute-force enumerations; an exhausted budget
	// surfaces as brute.ErrBudget (a skip, not a failure). The zero value
	// uses brute.MaxOrders.
	Limits brute.Limits
	// Engine is the heuristic under test; nil means expand.RecExpand.
	Engine EngineFunc
}

// Divergence is a certification failure: a named check whose two sides
// disagreed, carrying the full instance so the report alone reproduces
// the bug.
type Divergence struct {
	// Check names the violated claim ("liu-vs-brute-peak", "theorem3", ...).
	Check string
	// Detail states the two sides that disagreed.
	Detail string
	// Inst is the certified instance.
	Inst Instance
}

// Error formats the divergence with its instance.
func (d *Divergence) Error() string {
	return fmt.Sprintf("cert: %s: %s on %s", d.Check, d.Detail, d.Inst)
}

// IsSkip reports whether err means the instance could not be judged —
// infeasible bound, exhausted enumeration budget, or cancellation —
// rather than a genuine divergence. Sweep drivers regenerate and move on.
func IsSkip(err error) bool {
	return errors.Is(err, ErrInfeasible) || errors.Is(err, brute.ErrBudget) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Report carries the certified optima of one instance.
type Report struct {
	// OptPeak is the exact optimal in-core peak (brute == liu.MinMem).
	OptPeak int64
	// OptIO is the exact optimal I/O volume at the instance's M.
	OptIO int64
	// PostorderIO is the best-postorder I/O volume (Theorem 3 certified).
	PostorderIO int64
	// EngineIO is RecExpand's (MaxPerNode 2) simulated I/O.
	EngineIO int64
	// FullIO is FullRecExpand's simulated I/O.
	FullIO int64
}

// Certify runs the full exact-optimality wall on one brute-range
// instance. It returns a *Divergence error when any check fails, a skip
// error (see IsSkip) when the instance cannot be judged, and the
// certified Report otherwise.
//
// The checks, in order: liu.MinMem's peak equals the exhaustive optimum
// and its schedule really attains it; brute.MinIO's declared optimum is
// reproduced by re-simulation and hits zero whenever M admits the
// in-core peak; postorder.MinIO's prediction simulates exactly, is the
// exhaustive best postorder (Theorem 3), and on the unit-weight copy of
// the tree equals the global optimum (Theorem 4); and the expansion
// engine — both RecExpand and FullRecExpand, cache audit armed — emits a
// valid schedule with internally consistent accounting that never beats
// the exact optimum, that the byte-level executor carries out moving
// exactly the simulated I/O, and that is never improved upon by the
// ablation eviction policies.
func Certify(ctx context.Context, inst Instance, opts Options) (*Report, error) {
	t := inst.Tree
	if t == nil {
		return nil, fmt.Errorf("cert: instance has no tree")
	}
	if lb := t.MaxWBar(); inst.M < lb {
		return nil, fmt.Errorf("%w: M=%d < LB=%d", ErrInfeasible, inst.M, lb)
	}
	engine := opts.Engine
	if engine == nil {
		engine = func(t *tree.Tree, M int64, o expand.Options) (*expand.Result, error) {
			return expand.RecExpand(t, M, o)
		}
	}
	fail := func(check, format string, args ...any) error {
		return &Divergence{Check: check, Detail: fmt.Sprintf(format, args...), Inst: inst}
	}
	rep := &Report{}

	// Optimal peak: Liu's algorithm against exhaustive enumeration, and
	// the returned schedule must itself attain the declared peak.
	liuSched, liuPeak := liu.MinMem(t)
	optPeak, err := brute.OptimalPeakCtx(ctx, t, opts.Limits)
	if err != nil {
		return nil, err
	}
	if liuPeak != optPeak {
		return nil, fail("liu-vs-brute-peak", "liu.MinMem declares peak %d, exhaustive optimum is %d", liuPeak, optPeak)
	}
	simPeak, err := memsim.Peak(t, liuSched)
	if err != nil {
		return nil, fail("liu-schedule-invalid", "liu.MinMem schedule rejected: %v", err)
	}
	if simPeak != liuPeak {
		return nil, fail("liu-peak-unattained", "liu.MinMem schedule peaks at %d, declared %d", simPeak, liuPeak)
	}
	rep.OptPeak = optPeak

	// Optimal I/O: the oracle itself must be internally consistent before
	// anything is judged against it.
	optSched, optIO, err := brute.MinIOCtx(ctx, t, inst.M, opts.Limits)
	if err != nil {
		return nil, err
	}
	optRes, err := memsim.Run(t, inst.M, optSched, memsim.FiF)
	if err != nil {
		return nil, fail("brute-schedule-invalid", "brute.MinIO schedule rejected: %v", err)
	}
	if optRes.IO != optIO {
		return nil, fail("brute-io-mismatch", "brute.MinIO declares %d, its schedule simulates to %d", optIO, optRes.IO)
	}
	if inst.M >= optPeak && optIO != 0 {
		return nil, fail("brute-io-nonzero", "M=%d >= optimal peak %d but optimum I/O is %d", inst.M, optPeak, optIO)
	}
	rep.OptIO = optIO

	// Best postorder: prediction == simulation, and Theorem 3 — the
	// A_j − w_j child order is exhaustively the best postorder.
	poSched, poV, _ := postorder.MinIO(t, inst.M)
	poRes, err := memsim.Run(t, inst.M, poSched, memsim.FiF)
	if err != nil {
		return nil, fail("postorder-schedule-invalid", "postorder.MinIO schedule rejected: %v", err)
	}
	if poRes.IO != poV {
		return nil, fail("postorder-prediction", "postorder.MinIO predicts %d, simulates to %d", poV, poRes.IO)
	}
	if poV < optIO {
		return nil, fail("postorder-beats-optimum", "best postorder %d below global optimum %d", poV, optIO)
	}
	_, bruteV, err := brute.MinIOPostorder(ctx, t, inst.M, opts.Limits)
	if err != nil {
		return nil, err
	}
	if poV != bruteV {
		return nil, fail("theorem3", "postorder.MinIO gives %d, exhaustive best postorder is %d", poV, bruteV)
	}
	rep.PostorderIO = poV

	// Theorem 4 on the unit-weight copy of the same shape: the best
	// postorder is globally optimal on homogeneous trees. The bound is
	// derived deterministically from the instance so replays agree.
	hom := tree.Homogeneous(t)
	homLB, homPeak := hom.MaxWBar(), liu.MinMemPeak(hom)
	homM := homLB
	if homPeak > homLB {
		homM += inst.M % (homPeak - homLB + 1)
	}
	_, homPoV, _ := postorder.MinIO(hom, homM)
	_, homOptIO, err := brute.MinIOCtx(ctx, hom, homM, opts.Limits)
	if err != nil {
		return nil, err
	}
	if homPoV != homOptIO {
		return nil, fail("theorem4", "unit-weight copy at M=%d: best postorder %d, global optimum %d", homM, homPoV, homOptIO)
	}

	// The engine, both budgeted and full, against the certified optimum.
	rep.EngineIO, err = certifyEngine(ctx, inst, engine, "recexpand", expand.Options{MaxPerNode: 2}, optPeak, optIO, fail)
	if err != nil {
		return nil, err
	}
	rep.FullIO, err = certifyEngine(ctx, inst, engine, "fullrecexpand", expand.Options{MaxPerNode: 0}, optPeak, optIO, fail)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// certifyEngine runs one engine variant and checks its result against the
// certified optima. The variant's Ctx and VerifyCache are always armed.
func certifyEngine(ctx context.Context, inst Instance, engine EngineFunc, name string,
	eopts expand.Options, optPeak, optIO int64,
	fail func(check, format string, args ...any) error) (int64, error) {
	t := inst.Tree
	eopts.Ctx = ctx
	eopts.VerifyCache = true
	res, err := engine(t, inst.M, eopts)
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return 0, ctx.Err()
		}
		return 0, fail(name+"-error", "engine failed: %v", err)
	}
	if err := tree.Validate(t, res.Schedule); err != nil {
		return 0, fail(name+"-schedule-invalid", "engine schedule rejected: %v", err)
	}
	sim, err := memsim.Run(t, inst.M, res.Schedule, memsim.FiF)
	if err != nil {
		return 0, fail(name+"-simulation", "re-simulation rejected: %v", err)
	}
	if sim.IO != res.SimulatedIO || sim.Peak != res.SimulatedPeak {
		return 0, fail(name+"-resim", "declared (io=%d, peak=%d), re-simulated (io=%d, peak=%d)",
			res.SimulatedIO, res.SimulatedPeak, sim.IO, sim.Peak)
	}
	if check, detail := executed(t, inst.M, res.Schedule, res.SimulatedIO, ""); check != "" {
		return 0, fail(name+"-"+check, "%s", detail)
	}
	if res.SimulatedIO < optIO {
		return 0, fail(name+"-beats-optimum", "simulated I/O %d below exact optimum %d", res.SimulatedIO, optIO)
	}
	if res.SimulatedIO > res.IO {
		return 0, fail(name+"-accounting", "simulated I/O %d exceeds declared I/O %d", res.SimulatedIO, res.IO)
	}
	if res.IO != res.ExpansionIO+res.ResidualIO {
		return 0, fail(name+"-accounting", "IO %d != ExpansionIO %d + ResidualIO %d",
			res.IO, res.ExpansionIO, res.ResidualIO)
	}
	if inst.M >= optPeak && (res.SimulatedIO != 0 || res.Expansions != 0) {
		return 0, fail(name+"-spurious-io", "M=%d fits optimal peak %d yet engine paid io=%d with %d expansions",
			inst.M, optPeak, res.SimulatedIO, res.Expansions)
	}
	if eopts.MaxPerNode == 0 && !res.CapHit {
		if res.ResidualIO != 0 {
			return 0, fail(name+"-residual", "uncapped full expansion left residual I/O %d", res.ResidualIO)
		}
		if res.FinalPeak > inst.M {
			return 0, fail(name+"-finalpeak", "uncapped full expansion finished with peak %d > M=%d", res.FinalPeak, inst.M)
		}
	}
	// Theorem 1's observable corollary: on the engine's own schedule the
	// FiF policy is never beaten by the ablation policies.
	for _, pol := range []memsim.EvictionPolicy{memsim.NiF, memsim.LargestFirst} {
		ab, err := memsim.Run(t, inst.M, res.Schedule, pol)
		if err != nil {
			return 0, fail(name+"-ablation", "%v re-simulation rejected: %v", pol, err)
		}
		if ab.IO < res.SimulatedIO {
			return 0, fail(name+"-fif-dominated", "%v pays %d, FiF pays %d on the same schedule", pol, ab.IO, res.SimulatedIO)
		}
	}
	return res.SimulatedIO, nil
}
