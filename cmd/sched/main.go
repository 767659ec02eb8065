// Command sched runs a MinIO scheduling algorithm on a task tree (JSON, as
// produced by treegen) and reports the traversal, its I/O volume and
// optionally the step-by-step memory trace or a Graphviz rendering.
//
// Usage:
//
//	sched -tree tree.json -M 5000 -alg RecExpand
//	sched -tree tree.json -mid -alg all -trace
//	sched -tree tree.json -M 5000 -alg OptMinMem -dot out.dot
//	sched -tree big.json -mid -alg RecExpand -workers 8 -cache-budget 256MiB
//	sched -tree huge.json -mid -alg RecExpand -cache-budget 1GiB -stream-sched sched.txt
//	sched -tree huge.json -mid -alg RecExpand -stream-sched sched.txt -checkpoint run.ckpt
//	sched -tree huge.json -mid -alg RecExpand -stream-sched sched.txt -checkpoint run.ckpt -resume
//	sched -repair-sched sched.txt.partial
//
// -workers shards the expansion engine's initial profile warm;
// -cache-budget bounds the resident bytes of its profile cache
// (out-of-core-scale trees). Both knobs change only time and memory, never
// the result.
// -stream-sched writes the traversal straight to disk segment by segment
// (tree.WriteSchedule over the engine's streamed emission), so huge trees
// are scheduled without ever materializing the n-word schedule slice; the
// stream grows in <out>.partial and is atomically renamed over <out> only
// when complete, so the target path never holds a partial schedule.
//
// -checkpoint FILE arms durable checkpointing of the expansion engine
// (RecExpand/FullRecExpand only): the decision log and frontier are
// atomically persisted at quiescent points, so a run killed at ANY
// instant — SIGKILL included — restarts with -resume and continues to a
// bit-identical result instead of recomputing from scratch. With
// -stream-sched, -resume also repairs the partial stream (trimming a torn
// tail) and appends only the missing ids. -repair-sched validates and
// trims a partial stream standalone, reporting the safe resume offset.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/expand"
	"repro/internal/faultinject"
	"repro/internal/memsim"
	"repro/internal/search"
	"repro/internal/stats"
	"repro/internal/tree"
)

func main() {
	treePath := flag.String("tree", "", "task tree JSON file")
	M := flag.Int64("M", 0, "memory bound (units)")
	mid := flag.Bool("mid", false, "use the paper's mid bound (LB+Peak-1)/2 instead of -M")
	alg := flag.String("alg", "RecExpand", "algorithm: OptMinMem, PostOrderMinIO, PostOrderMinMem, NaturalPostOrder, RecExpand, FullRecExpand, or all")
	trace := flag.Bool("trace", false, "print the step-by-step memory trace")
	dot := flag.String("dot", "", "write a Graphviz rendering (tree + schedule steps) to this file")
	doSearch := flag.Bool("search", false, "post-optimize each schedule with local search")
	workers := flag.Int("workers", 0, "shards of the expansion engine's initial profile warm: 0 = auto (GOMAXPROCS on trees of 4096+ nodes), 1 = sequential; results are identical for every setting")
	cacheBudget := flag.String("cache-budget", "", "resident-byte budget of the expansion engine's profile caches, e.g. 64MiB (empty or 0 = unlimited); results are identical for every budget")
	out := flag.String("o", "", "write the last algorithm's full traversal (σ, τ) as JSON to this file")
	streamSched := flag.String("stream-sched", "", "stream the schedule to this file, one node id per line, without materializing it (RecExpand/FullRecExpand only)")
	ckptPath := flag.String("checkpoint", "", "durably checkpoint the expansion engine's progress to this file (RecExpand/FullRecExpand only); resume a killed run with -resume")
	ckptInterval := flag.Int("checkpoint-interval", 0, "checkpointable events between durable checkpoint writes (0 = engine default)")
	resume := flag.Bool("resume", false, "resume from the -checkpoint file (and repair/extend the -stream-sched partial stream); a missing checkpoint starts fresh")
	repairSched := flag.String("repair-sched", "", "repair a partial schedule stream in place (trim torn tail, report the safe resume offset) and exit")
	flag.Parse()

	budget, err := core.ParseByteSize(*cacheBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sched:", err)
		os.Exit(1)
	}
	isExpansion := core.Algorithm(*alg) == core.RecExpand || core.Algorithm(*alg) == core.FullRecExpand
	// First SIGINT/SIGTERM: cancel the context and let the engine stop
	// gracefully (the streaming path flushes a truncation-marked stream
	// and reports progress). Once the context is done the handler is
	// uninstalled, so a second signal force-kills a stuck run.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()
	switch {
	case *repairSched != "":
		err = runRepair(*repairSched)
	case *streamSched != "" && (*out != "" || *trace || *dot != "" || *doSearch):
		// The streaming path never materializes the schedule these flags
		// need; dropping them silently would report success for work that
		// was not done.
		err = fmt.Errorf("-stream-sched cannot be combined with -o, -trace, -dot or -search")
	case (*ckptPath != "" || *resume) && !isExpansion:
		// Checkpointing is the expansion engine's; the closed-form
		// algorithms (and "all") have nothing durable to log.
		err = fmt.Errorf("-checkpoint/-resume require -alg RecExpand or FullRecExpand, not %q", *alg)
	case *resume && *ckptPath == "":
		err = fmt.Errorf("-resume requires -checkpoint (the file to resume from)")
	case *streamSched != "":
		err = runStream(ctx, *treePath, *M, *mid, *alg, *workers, budget, *streamSched, *ckptPath, *ckptInterval, *resume)
	default:
		err = run(ctx, *treePath, *M, *mid, *alg, *trace, *dot, *doSearch, *workers, budget, *out, *ckptPath, *ckptInterval, *resume)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sched:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130) // interrupted, 128+SIGINT: scripts can tell a cancel from a failure
		}
		os.Exit(1)
	}
}

// loadInstance reads the tree and resolves the memory bound.
func loadInstance(treePath string, M int64, mid bool) (*core.Instance, int64, error) {
	if treePath == "" {
		return nil, 0, fmt.Errorf("-tree is required")
	}
	f, err := os.Open(treePath)
	if err != nil {
		return nil, 0, err
	}
	t, err := tree.ReadJSON(f)
	f.Close()
	if err != nil {
		return nil, 0, err
	}
	in := core.NewInstance(treePath, t)
	if mid {
		M = in.M(core.BoundMid)
		if M < in.LB {
			M = in.LB // Peak == LB: the tree never needs I/O
		}
	}
	if M <= 0 {
		return nil, 0, fmt.Errorf("need -M > 0 or -mid")
	}
	return in, M, nil
}

// runRepair is the standalone -repair-sched mode: trim a partial schedule
// stream to its longest trusted prefix so a later -resume (or any strict
// consumer of the prefix) starts from a safe offset.
func runRepair(path string) error {
	ids, complete, err := tree.RepairScheduleFile(path)
	if err != nil {
		return err
	}
	if complete {
		fmt.Printf("%s: already complete (%d schedule ids, end trailer verified); nothing trimmed\n", path, ids)
		return nil
	}
	fmt.Printf("%s: repaired to %d trusted schedule ids; safe resume offset is id %d (untrusted tail trimmed in place)\n", path, ids, ids)
	return nil
}

// runStream is the out-of-core path: the expansion engine streams the
// final schedule straight to the output file, so no n-word slice is ever
// built (see expand.(*Engine).RecExpandStream and tree.WriteSchedule).
//
// Durability contract: the stream grows in out+".partial" and is renamed
// over out only after the completeness trailer is durably on disk, so out
// either holds a strict-valid complete schedule or the previous run's.
// With -resume, the partial is first repaired (torn tail trimmed) and the
// engine's deterministic re-emission is skipped past the ids already on
// disk, so only the missing suffix is ever written.
func runStream(ctx context.Context, treePath string, M int64, mid bool, alg string, workers int, cacheBudget int64, out, ckptPath string, ckptInterval int, resume bool) error {
	a := core.Algorithm(alg)
	if a != core.RecExpand && a != core.FullRecExpand {
		return fmt.Errorf("-stream-sched supports RecExpand and FullRecExpand, not %q", alg)
	}
	in, M, err := loadInstance(treePath, M, mid)
	if err != nil {
		return err
	}
	fmt.Printf("%s  LB=%d Peak_incore=%d M=%d\n", in.Tree.String(), in.LB, in.Peak, M)

	runner, err := newRunner(ctx, workers, cacheBudget, ckptPath, ckptInterval, resume)
	if err != nil {
		return err
	}
	partial := out + ".partial"
	var skip int64
	var f *os.File
	if resume {
		ids, complete, rerr := tree.RepairScheduleFile(partial)
		switch {
		case rerr == nil && complete:
			// The stream finished but the final rename was lost: commit the
			// already-complete partial without recomputing anything.
			pf, err := os.OpenFile(partial, os.O_RDWR, 0)
			if err != nil {
				return err
			}
			if err := ckpt.CommitFile(pf, partial, out); err != nil {
				return err
			}
			fmt.Printf("%d-step schedule already complete in %s; committed to %s\n", ids, partial, out)
			return nil
		case rerr == nil:
			skip = ids
			fmt.Printf("resuming: %d schedule ids already durable in %s\n", ids, partial)
		case errors.Is(rerr, os.ErrNotExist):
			// Killed before the first segment flushed: nothing to skip.
		default:
			return rerr
		}
		f, err = os.OpenFile(partial, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	} else {
		f, err = os.Create(partial)
	}
	if err != nil {
		return err
	}

	var res *core.Result
	var rerr error
	// faultinject.NewWriter is an identity wrapper on default builds; under
	// the faultinject tag it lets the robustness harness fail this stream
	// at an exact byte offset.
	n, werr := tree.WriteScheduleAt(faultinject.NewWriter(f), skip, func(yield func(seg []int) bool) bool {
		res, rerr = runner.RunStream(a, in.Tree, M, yield)
		return rerr == nil
	})
	if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
		// Graceful interruption: WriteScheduleAt has already flushed the
		// truncation marker, so a strict reader can never mistake the
		// partial stream for a complete schedule, and a later -resume run
		// repairs and extends it.
		f.Close()
		fmt.Fprintf(os.Stderr, "sched: interrupted: %d schedule ids flushed to %s (stream carries a truncation marker; rerun with -resume to continue)\n", skip+n, partial)
		return rerr
	}
	if rerr != nil && rerr != expand.ErrEmissionStopped {
		f.Close()
		return rerr
	}
	if werr != nil {
		f.Close()
		return werr
	}
	// Fsync the finished stream and rename it over the target: out never
	// observes a partial schedule, even across power loss.
	if err := ckpt.CommitFile(f, partial, out); err != nil {
		return err
	}
	fmt.Printf("%s IO=%d performance=%.4f peak_resident_cache=%.1fMiB\n",
		alg, res.IO, res.Performance(M), float64(runner.CacheStats().PeakResidentBytes)/(1<<20))
	fmt.Printf("%d-step schedule streamed to %s\n", skip+n, out)
	return nil
}

// newRunner builds the engine runner of both scheduling paths. With
// resume, a checkpoint may legitimately be missing (the run was killed
// before its first durable write): the run then starts fresh. Any other
// stat failure is a real error.
func newRunner(ctx context.Context, workers int, cacheBudget int64, ckptPath string, ckptInterval int, resume bool) (*core.Runner, error) {
	runner := core.NewRunner(workers)
	runner.CacheBudget = cacheBudget
	runner.Ctx = ctx
	runner.CheckpointPath = ckptPath
	runner.CheckpointInterval = ckptInterval
	if resume {
		if _, err := os.Stat(ckptPath); err == nil {
			runner.ResumeFrom = ckptPath
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	return runner, nil
}

func run(ctx context.Context, treePath string, M int64, mid bool, alg string, trace bool, dot string, doSearch bool, workers int, cacheBudget int64, out, ckptPath string, ckptInterval int, resume bool) error {
	in, M, err := loadInstance(treePath, M, mid)
	if err != nil {
		return err
	}
	t := in.Tree
	fmt.Printf("%s  LB=%d Peak_incore=%d\n", t.String(), in.LB, in.Peak)
	if mid {
		fmt.Printf("using mid bound M=%d\n", M)
	}

	algs := []core.Algorithm{core.Algorithm(alg)}
	if alg == "all" {
		algs = append(append([]core.Algorithm(nil), core.PaperAlgorithms...), core.PostOrderMinMem, core.NaturalPostOrder)
	}
	header := []string{"algorithm", "IO", "performance", "peak_incore"}
	if doSearch {
		header = append(header, "IO_after_search")
	}
	tab := stats.NewTable(header...)
	runner, err := newRunner(ctx, workers, cacheBudget, ckptPath, ckptInterval, resume)
	if err != nil {
		return err
	}
	var lastSched tree.Schedule
	for _, a := range algs {
		res, err := runner.Run(a, t, M)
		if err != nil {
			return err
		}
		row := fmt.Sprintf("%s %d %.4f %d", a, res.IO, res.Performance(M), res.Peak)
		lastSched = res.Schedule
		if doSearch {
			s, err := search.Improve(t, M, res.Schedule, search.Options{Seed: 1})
			if err != nil {
				return err
			}
			row += fmt.Sprintf(" %d", s.IO)
			lastSched = s.Schedule
		}
		tab.AddRowf("%s", row)
	}
	if err := tab.Write(os.Stdout); err != nil {
		return err
	}

	if trace && lastSched != nil {
		res, err := memsim.RunTraced(t, M, lastSched, memsim.FiF)
		if err != nil {
			return err
		}
		fmt.Printf("\ntrace of %s (last algorithm):\n", algs[len(algs)-1])
		fmt.Print(memsim.RenderTrace(res, 60))
	}
	if dot != "" && lastSched != nil {
		// Atomic temp+fsync+rename: a crash or write error mid-render never
		// leaves a truncated file at the requested path.
		err := ckpt.WriteFileAtomic(dot, func(w io.Writer) error {
			return t.WriteDOT(faultinject.NewWriter(w), lastSched)
		})
		if err != nil {
			return err
		}
		fmt.Println("DOT written to", dot)
	}
	if out != "" && lastSched != nil {
		tv, err := core.NewTraversal(t, M, lastSched, algs[len(algs)-1])
		if err != nil {
			return err
		}
		err = ckpt.WriteFileAtomic(out, func(w io.Writer) error {
			return tv.Write(faultinject.NewWriter(w))
		})
		if err != nil {
			return err
		}
		fmt.Printf("traversal (IO=%d) written to %s\n", tv.IO(), out)
	}
	return nil
}
