package postorder

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/liu"
	"repro/internal/randtree"
	"repro/internal/sparse"
	"repro/internal/tree"
)

// scheduleGolden pins the postorder schedules of one instance: Liu's best
// postorder for peak memory and the best postorder for I/O at two memory
// bounds, LB and the paper's Mid.
type scheduleGolden struct {
	Name   string     `json:"name"`
	Peak   int64      `json:"peak"`
	MinMem []int      `json:"postorderminmem"`
	MinIO  []ioGolden `json:"minio"`
}

type ioGolden struct {
	M     int64 `json:"m"`
	V     int64 `json:"v"`
	Sched []int `json:"sched"`
}

// goldenInstances returns seeded SYNTH trees and elimination task trees
// of the TREES families (natural and nested-dissection 2-D grids, random
// symmetric patterns in natural and minimum-degree order, a band). The
// elimination trees have wide nodes and many equal sort keys, so they pin
// the id tie-break.
func goldenInstances(tb testing.TB) (names []string, trees []*tree.Tree) {
	tb.Helper()
	add := func(name string, t *tree.Tree) {
		names = append(names, name)
		trees = append(trees, t)
	}
	for _, n := range []int{40, 200} {
		for seed := int64(1); seed <= 5; seed++ {
			add("synth", randtree.Synth(n, rand.New(rand.NewSource(seed))))
		}
	}
	add("synth", randtree.Synth(3000, rand.New(rand.NewSource(9025))))
	elim := func(name string, p *sparse.Pattern, err error, relax int64) {
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		t, err := sparse.EliminationTaskTree(p, relax)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		add(name, t)
	}
	p, err := sparse.Grid2D(12, 12)
	elim("grid2d-nat-12", p, err, 0)
	if err == nil {
		pp, err := p.Permute(sparse.NestedDissection2D(12, 12, 4))
		elim("grid2d-nd-12x12-l4", pp, err, 0)
		pp, err = p.Permute(sparse.NestedDissection2D(12, 12, 8))
		elim("grid2d-nd-12x12-l8-relax4", pp, err, 4)
	}
	p, err = sparse.Grid3D(6, 6, 6)
	if err == nil {
		p, err = p.Permute(sparse.NestedDissection3D(6, 6, 6, 8))
	}
	elim("grid3d-nd-6x6x6", p, err, 0)
	for seed := int64(1); seed <= 2; seed++ {
		p, err := sparse.RandomSymmetric(500, 6, rand.New(rand.NewSource(seed)))
		elim("rand-500-d6", p, err, 0)
		if err == nil {
			pm, err := p.Permute(sparse.MinimumDegree(p))
			elim("rand-md-500-d6", pm, err, 0)
		}
	}
	p, err = sparse.Band(200, 4)
	elim("band-200", p, err, 0)
	return names, trees
}

func postorderGoldenCases(tb testing.TB) []scheduleGolden {
	names, trees := goldenInstances(tb)
	out := make([]scheduleGolden, len(trees))
	for k, t := range trees {
		sched, peak := liu.PostOrderMinMem(t)
		g := scheduleGolden{Name: names[k], Peak: peak, MinMem: sched}
		lb := t.MaxWBar()
		for _, M := range []int64{lb, (lb + liu.MinMemPeak(t) - 1) / 2} {
			if M < lb {
				M = lb
			}
			sched, v, _ := MinIO(t, M)
			g.MinIO = append(g.MinIO, ioGolden{M: M, V: v, Sched: sched})
		}
		out[k] = g
	}
	return out
}

// TestPostorderGolden pins PostOrderMinIO's and liu.PostOrderMinMem's
// schedules against testdata/postorder_golden.json, recorded by the
// implementations that sorted per-node copies of each child list with
// sort.SliceStable and concatenated per-node schedules upward.
func TestPostorderGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/postorder_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []scheduleGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := postorderGoldenCases(t)
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if g, w := got[i], want[i]; !reflect.DeepEqual(g, w) {
			t.Errorf("case %d (%s) differs from the golden file", i, w.Name)
		}
	}
}
