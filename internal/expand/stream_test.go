package expand

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/liu"
	"repro/internal/tree"
)

// TestRecExpandStreamMatchesMaterialized is the streaming acceptance grid:
// across the 220-instance corpus crossed with cache budgets (tiny thrash, a
// middling default, unlimited) and worker counts {1, 2, 8}, the streamed
// emission must deliver segment for segment exactly the materialized
// Result.Schedule, and every other Result field must be bit-identical.
// The materialized path is itself pinned against ReferenceRecExpand by
// TestRecExpandBudgetedMatchesReference over the same corpus, so this
// transitively anchors the stream to the frozen seed engine. The CI race
// job runs the grid under -race, which exercises emission right after the
// sharded warm.
func TestRecExpandStreamMatchesMaterialized(t *testing.T) {
	budgets := []int64{1, 16 << 10, 0}
	workers := []int{1, 2, 8}
	eng := NewEngine()
	budgetCorpus(t, 2028, 220, func(tr *tree.Tree, M int64, trial int) {
		for _, b := range budgets {
			for _, w := range workers {
				opts := Options{MaxPerNode: 2, Workers: w, CacheBudget: b}
				want, err := eng.RecExpand(tr, M, opts)
				if err != nil {
					t.Fatalf("trial %d budget=%d workers=%d: materialized: %v", trial, b, w, err)
				}
				var sched tree.Schedule
				got, err := eng.RecExpandStream(tr, M, opts, func(seg []int) bool {
					sched = append(sched, seg...)
					return true
				})
				if err != nil {
					t.Fatalf("trial %d budget=%d workers=%d: streamed: %v", trial, b, w, err)
				}
				if got.Schedule != nil {
					t.Fatalf("trial %d: streamed Result carries a materialized schedule", trial)
				}
				if !reflect.DeepEqual(sched, want.Schedule) {
					t.Fatalf("trial %d budget=%d workers=%d: streamed schedule diverges (M=%d n=%d)",
						trial, b, w, M, tr.N())
				}
				got.Schedule = want.Schedule
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d budget=%d workers=%d: streamed Result diverges\ngot:  %+v\nwant: %+v",
						trial, b, w, got, want)
				}
			}
		}
	})
}

// TestRecExpandStreamEarlyStop checks consumer cancellation: a yield that
// stops mid-stream must surface ErrEmissionStopped, and the engine must
// stay fully usable afterwards (the next run, streamed or materialized, is
// unaffected).
func TestRecExpandStreamEarlyStop(t *testing.T) {
	eng := NewEngine()
	budgetCorpus(t, 2029, 40, func(tr *tree.Tree, M int64, trial int) {
		opts := Options{MaxPerNode: 2, CacheBudget: 16 << 10}
		want, err := eng.RecExpand(tr, M, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
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
		var sched tree.Schedule
		got, err := eng.RecExpandStream(tr, M, opts, func(seg []int) bool {
			sched = append(sched, seg...)
			return true
		})
		if err != nil {
			t.Fatalf("trial %d: rerun after early stop: %v", trial, err)
		}
		if !reflect.DeepEqual(sched, want.Schedule) {
			t.Fatalf("trial %d: schedule diverges after early stop", trial)
		}
		got.Schedule = want.Schedule
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Result diverges after early stop", trial)
		}
	})
}

// TestRecExpandStreamAll exercises the streamed finish through the public
// policies and MaxPerNode settings of the main differential corpus (the
// reference-pinned configurations), sequentially.
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
		want, err := eng.RecExpand(tr, M, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var sched tree.Schedule
		got, err := eng.RecExpandStream(tr, M, opts, func(seg []int) bool {
			sched = append(sched, seg...)
			return true
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(sched, want.Schedule) {
			t.Fatalf("trial %d: streamed schedule diverges (opts=%+v)", trial, opts)
		}
		got.Schedule = want.Schedule
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: streamed Result diverges (opts=%+v)", trial, opts)
		}
	}
}
