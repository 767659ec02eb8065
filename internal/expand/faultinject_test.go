//go:build faultinject

package expand

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/liu"
	"repro/internal/randtree"
	"repro/internal/tree"
)

// faultConfig is one engine configuration of the injection grid and the
// points that can fire under it.
type faultConfig struct {
	name   string
	opts   Options
	points []faultinject.Point
}

// TestFaultInjectionGrid is the property harness of the robustness work:
// over the same 220-instance corpus as the differential grid, inject one
// deterministic fault per (instance, configuration, point) — count the
// point's hits on a clean run, arm a seed-derived hit index, re-run — and
// assert the all-or-nothing contract: a residency fault (forced eviction)
// must leave the Result bit-identical, a failure fault (arena allocation,
// sequential or inside a sharded-warm goroutine) must surface as the
// matching typed error, and after any fault the SAME engine must
// reproduce the clean run bit-for-bit.
func TestFaultInjectionGrid(t *testing.T) {
	defer faultinject.Reset()
	corpus := 220
	if testing.Short() {
		corpus = 60 // the -race CI smoke: same property, smaller grid
	}
	configs := []faultConfig{
		{
			name: "sequential/budgeted",
			opts: Options{Workers: 1, CacheBudget: 1 << 12},
			points: []faultinject.Point{
				faultinject.ArenaAlloc,
				faultinject.CacheEvict,
			},
		},
		{
			name: "sharded-warm/2workers",
			opts: Options{Workers: 2, CacheBudget: 1 << 12},
			points: []faultinject.Point{
				faultinject.ArenaAlloc,
				faultinject.CacheEvict,
			},
		},
	}
	engines := []*Engine{NewEngine(), NewEngine()}

	rng := rand.New(rand.NewSource(2024))
	tried := 0
	for trial := 0; tried < corpus; trial++ {
		var tr *tree.Tree
		if trial%3 == 0 {
			tr = randtree.Synth(20+rng.Intn(150), rng)
		} else {
			tr = randomTree(2+rng.Intn(60), rng)
		}
		lb := tr.MaxWBar()
		_, peak := liu.MinMem(tr)
		if peak <= lb {
			continue
		}
		M := lb + rng.Int63n(peak-lb)
		maxPerNode := []int{0, 1, 2, 5}[rng.Intn(4)]
		victim := []VictimPolicy{LatestParent, EarliestParent, LargestTau}[rng.Intn(3)]
		tried++

		for ci, cfg := range configs {
			opts := cfg.opts
			opts.MaxPerNode, opts.Victim = maxPerNode, victim
			eng := engines[ci]

			// Clean run doubles as the counting run for every point.
			faultinject.Reset()
			want, err := eng.RecExpand(tr, M, opts)
			if err != nil {
				t.Fatalf("trial %d %s: clean run: %v", trial, cfg.name, err)
			}
			for _, p := range cfg.points {
				total := faultinject.Hits(p)
				if total == 0 {
					continue // this workload never reaches the point
				}
				faultinject.Reset()
				faultinject.Arm(p, faultinject.PlanHit(int64(trial), p, total))
				got, err := eng.RecExpand(tr, M, opts)
				switch p {
				case faultinject.CacheEvict:
					// Residency faults are semantics-free.
					if err != nil {
						t.Fatalf("trial %d %s %v: unexpected error: %v", trial, cfg.name, p, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d %s %v: fault changed the Result", trial, cfg.name, p)
					}
				case faultinject.ArenaAlloc:
					var perr *PanicError
					if !errors.As(err, &perr) || !errors.Is(err, faultinject.ErrArenaAlloc) {
						t.Fatalf("trial %d %s %v: got %v, want a PanicError wrapping ErrArenaAlloc", trial, cfg.name, p, err)
					}
				}
				// Re-runnability: the engine that just absorbed the fault
				// must reproduce the clean run exactly.
				faultinject.Reset()
				again, err := eng.RecExpand(tr, M, opts)
				if err != nil {
					t.Fatalf("trial %d %s %v: rerun after fault: %v", trial, cfg.name, p, err)
				}
				if !reflect.DeepEqual(again, want) {
					t.Fatalf("trial %d %s %v: rerun after fault diverges", trial, cfg.name, p)
				}
			}
		}
	}
	if tried < corpus {
		t.Fatalf("corpus too small: %d instances", tried)
	}
}
