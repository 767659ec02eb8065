package expand

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/liu"
	"repro/internal/tree"
)

// streamMatches runs RecExpandStream on eng and reports how it differs from
// want, a reference Result: the concatenated segments must be exactly
// want.Schedule, and the streamed Result (whose Schedule is nil) every
// other field of want. It returns "" when they agree.
func streamMatches(eng *Engine, tr *tree.Tree, M int64, opts Options, want *Result) string {
	var sched tree.Schedule
	got, err := eng.RecExpandStream(tr, M, opts, func(seg []int) bool {
		sched = append(sched, seg...)
		return true
	})
	switch {
	case err != nil:
		return "streamed: " + err.Error()
	case got.Schedule != nil:
		return "streamed Result carries a materialized schedule"
	case !reflect.DeepEqual(sched, want.Schedule):
		return "streamed schedule diverges"
	}
	w := *want
	w.Schedule = nil
	if !reflect.DeepEqual(*got, w) {
		return "streamed Result diverges"
	}
	return ""
}

// TestRecExpandStreamMatchesMaterialized is the streaming acceptance grid:
// across a 220-instance corpus crossed with cache budgets (tiny thrash, a
// middling default, unlimited) and worker counts {1, 2, 8}, the
// materialized Result must equal the frozen ReferenceRecExpand's, and the
// streamed emission on the same reused engine must deliver segment for
// segment exactly that Schedule with every other Result field
// bit-identical. RecExpand collects RecExpandStream, so the reference is
// what anchors both; the check against the materialized run pins the
// collector. The CI race job runs the grid under -race, which exercises
// emission right after the sharded warm.
func TestRecExpandStreamMatchesMaterialized(t *testing.T) {
	budgets := []int64{1, 16 << 10, 0}
	workers := []int{1, 2, 8}
	eng := NewEngine()
	budgetCorpus(t, 2028, 220, func(tr *tree.Tree, M int64, trial int) {
		want, err := ReferenceRecExpand(tr, M, Options{MaxPerNode: 2})
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		for _, b := range budgets {
			for _, w := range workers {
				opts := Options{MaxPerNode: 2, Workers: w, CacheBudget: b}
				mat, err := eng.RecExpand(tr, M, opts)
				if err != nil {
					t.Fatalf("trial %d budget=%d workers=%d: materialized: %v", trial, b, w, err)
				}
				if !reflect.DeepEqual(mat, want) {
					t.Fatalf("trial %d budget=%d workers=%d: materialized diverges from reference (M=%d n=%d)\ngot:  %+v\nwant: %+v",
						trial, b, w, M, tr.N(), mat, want)
				}
				if msg := streamMatches(eng, tr, M, opts, mat); msg != "" {
					t.Fatalf("trial %d budget=%d workers=%d: %s (M=%d n=%d)", trial, b, w, msg, M, tr.N())
				}
			}
		}
	})
}

// TestRecExpandStreamEarlyStop checks consumer cancellation: a yield that
// stops mid-stream must surface ErrEmissionStopped, and the engine must
// stay fully usable afterwards (the next run, streamed or materialized,
// matches the reference engine).
func TestRecExpandStreamEarlyStop(t *testing.T) {
	eng := NewEngine()
	budgetCorpus(t, 2029, 40, func(tr *tree.Tree, M int64, trial int) {
		opts := Options{MaxPerNode: 2, CacheBudget: 16 << 10}
		want, err := ReferenceRecExpand(tr, M, opts)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		seen := 0
		_, err = eng.RecExpandStream(tr, M, opts, func(seg []int) bool {
			seen += len(seg)
			return false
		})
		if !errors.Is(err, ErrEmissionStopped) {
			t.Fatalf("trial %d: stopped stream returned %v, want ErrEmissionStopped", trial, err)
		}
		if seen == 0 {
			t.Fatalf("trial %d: consumer saw nothing before stopping", trial)
		}
		if msg := streamMatches(eng, tr, M, opts, want); msg != "" {
			t.Fatalf("trial %d: rerun after early stop: %s", trial, msg)
		}
		got, err := eng.RecExpand(tr, M, opts)
		if err != nil {
			t.Fatalf("trial %d: materialized run after early stop: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: materialized Result diverges after early stop", trial)
		}
	})
}

// TestRecExpandStreamAll exercises the streamed finish through the public
// victim policies and MaxPerNode settings of the main differential corpus,
// sequentially on one reused engine: every streamed run must deliver
// exactly ReferenceRecExpand's Schedule and the rest of its Result.
func TestRecExpandStreamAll(t *testing.T) {
	rng := rand.New(rand.NewSource(2032))
	eng := NewEngine()
	tried := 0
	for trial := 0; tried < 60; trial++ {
		tr := randomTree(2+rng.Intn(60), rng)
		lb := tr.MaxWBar()
		_, peak := liu.MinMem(tr)
		if peak <= lb {
			continue
		}
		M := lb + rng.Int63n(peak-lb)
		tried++
		opts := Options{
			MaxPerNode: []int{0, 1, 2, 5}[rng.Intn(4)],
			Victim:     []VictimPolicy{LatestParent, EarliestParent, LargestTau}[rng.Intn(3)],
		}
		want, err := ReferenceRecExpand(tr, M, opts)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		if msg := streamMatches(eng, tr, M, opts, want); msg != "" {
			t.Fatalf("trial %d: %s (opts=%+v M=%d n=%d)", trial, msg, opts, M, tr.N())
		}
	}
}
