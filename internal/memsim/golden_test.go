package memsim

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/randtree"
	"repro/internal/tree"
)

// tauGolden is one pinned simulation: the τ (sparse, nonzero entries
// only), I/O volume and peak of one policy on one schedule of a seeded
// SYNTH tree at one memory bound.
type tauGolden struct {
	N      int           `json:"n"`
	Seed   int64         `json:"seed"`
	Order  string        `json:"order"`
	M      int64         `json:"m"`
	Policy string        `json:"policy"`
	IO     int64         `json:"io"`
	Peak   int64         `json:"peak"`
	Tau    map[int]int64 `json:"tau"`
}

// randomTopological draws a uniformly random ready node at every step,
// so NiF and LargestFirst see far more eviction pressure than on a
// postorder.
func randomTopological(t *tree.Tree, rng *rand.Rand) tree.Schedule {
	left := make([]int, t.N())
	var ready []int
	for i := range left {
		left[i] = t.NumChildren(i)
		if left[i] == 0 {
			ready = append(ready, i)
		}
	}
	sched := make(tree.Schedule, 0, t.N())
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		v := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		sched = append(sched, v)
		if p := t.Parent(v); p != tree.None {
			if left[p]--; left[p] == 0 {
				ready = append(ready, p)
			}
		}
	}
	return sched
}

// tauGoldenCases simulates every policy on a grid of seeded SYNTH trees,
// two schedules each (natural postorder and a seeded random topological
// order) and three bounds per schedule (LB, midway, peak − 1).
func tauGoldenCases(tb testing.TB) []tauGolden {
	tb.Helper()
	var out []tauGolden
	for _, n := range []int{40, 200} {
		for seed := int64(1); seed <= 5; seed++ {
			tr := randtree.Synth(n, rand.New(rand.NewSource(seed)))
			orders := []struct {
				name  string
				sched tree.Schedule
			}{
				{"postorder", tr.NaturalPostorder()},
				{"random", randomTopological(tr, rand.New(rand.NewSource(seed+100)))},
			}
			for _, o := range orders {
				lb := tr.MaxWBar()
				peak, err := Peak(tr, o.sched)
				if err != nil {
					tb.Fatal(err)
				}
				for _, M := range []int64{lb, (lb + peak) / 2, peak - 1} {
					if M < lb {
						continue
					}
					for _, pol := range []EvictionPolicy{FiF, NiF, LargestFirst} {
						res, err := Run(tr, M, o.sched, pol)
						if err != nil {
							tb.Fatalf("n=%d seed=%d %s M=%d %v: %v", n, seed, o.name, M, pol, err)
						}
						tau := map[int]int64{}
						for i, v := range res.Tau {
							if v != 0 {
								tau[i] = v
							}
						}
						out = append(out, tauGolden{N: n, Seed: seed, Order: o.name, M: M,
							Policy: pol.String(), IO: res.IO, Peak: res.Peak, Tau: tau})
					}
				}
			}
		}
	}
	return out
}

// TestTauGolden pins τ, I/O and peak of FiF, NiF and LargestFirst against
// testdata/tau_golden.json. The file was recorded by the simulator whose
// heap still held consumed children as dead entries, so it proves that
// keeping only live outputs in the heap changed no τ. FiF's τ is also
// pinned by the engine's differential corpus; NiF's and LargestFirst's
// only here.
func TestTauGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/tau_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []tauGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := tauGoldenCases(t)
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if g, w := got[i], want[i]; !reflect.DeepEqual(g, w) {
			t.Errorf("case %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
}
