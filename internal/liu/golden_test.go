package liu_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/liu"
	"repro/internal/randtree"
	"repro/internal/tree"
)

// minMemGolden pins one instance: liu.MinMem's peak and schedule and
// liu.AllSubtreePeaks, the schedule and the peaks as FNV-64a digests of
// their values in order.
type minMemGolden struct {
	Name     string `json:"name"`
	N        int    `json:"n"`
	Peak     int64  `json:"peak"`
	Schedule string `json:"schedule"`
	SubPeaks string `json:"subtree_peaks"`
}

func digest[T int | int64](xs []T) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

type goldenTree struct {
	name string
	t    *tree.Tree
}

// goldenTrees are the instances of testdata/minmem_golden.json: seeded
// SYNTH trees, one TREES elimination tree, the 20 000-node staircase
// (profiles of about 250 segments), and three degenerate shapes — a star,
// a chain and a caterpillar — with seeded weights.
func goldenTrees(tb testing.TB) []goldenTree {
	tb.Helper()
	var out []goldenTree
	for seed := int64(1); seed <= 4; seed++ {
		out = append(out, goldenTree{fmt.Sprintf("synth-3000-seed%d", seed),
			randtree.Synth(3000, rand.New(rand.NewSource(seed)))})
	}
	trees, err := experiments.Trees(experiments.SmallTrees)
	if err != nil {
		tb.Fatal(err)
	}
	largest := trees[0]
	for _, in := range trees {
		if in.Tree.N() > largest.Tree.N() {
			largest = in
		}
	}
	out = append(out, goldenTree{"trees-small-" + largest.Name, largest.Tree})
	out = append(out, goldenTree{"staircase-20000", experiments.Huge(20000, 1).Tree})

	rng := rand.New(rand.NewSource(5))
	shape := func(name string, n int, parentOf func(i int) int) {
		parent := make([]int, n)
		weight := make([]int64, n)
		for i := range parent {
			parent[i] = parentOf(i)
			weight[i] = 1 + rng.Int63n(100)
		}
		out = append(out, goldenTree{name, tree.MustNew(parent, weight)})
	}
	shape("star-2000", 2001, func(i int) int {
		if i == 0 {
			return tree.None
		}
		return 0
	})
	shape("chain-5000", 5000, func(i int) int { return i - 1 })
	// Spine nodes are the even ids, each with one leaf (the next odd id).
	shape("caterpillar-2000", 4000, func(i int) int {
		switch {
		case i == 0:
			return tree.None
		case i%2 == 1:
			return i - 1
		default:
			return i - 2
		}
	})
	return out
}

func goldenCases(tb testing.TB) []minMemGolden {
	var out []minMemGolden
	for _, g := range goldenTrees(tb) {
		sched, peak := liu.MinMem(g.t)
		out = append(out, minMemGolden{
			Name:     g.name,
			N:        g.t.N(),
			Peak:     peak,
			Schedule: digest(sched),
			SubPeaks: digest(liu.AllSubtreePeaks(g.t)),
		})
	}
	return out
}

// cacheCase is the same record read from a cold ProfileCache: its root
// schedule and the peak of every node.
func cacheCase(g minMemGolden, t *tree.Tree) minMemGolden {
	c := liu.NewProfileCache(t)
	peaks := make([]int64, t.N())
	for v := range peaks {
		peaks[v] = c.Peak(v)
	}
	g.Peak = peaks[t.Root()]
	g.Schedule = digest(c.AppendSchedule(t.Root(), nil))
	g.SubPeaks = digest(peaks)
	return g
}

// TestMinMemGolden pins liu.MinMem and liu.AllSubtreePeaks against
// testdata/minmem_golden.json, recorded by the merge-then-canonicalize
// implementation that the one-pass kernel replaced, and checks a cold
// ProfileCache against the same records. The cache and liu.MinMem share
// the kernel, so comparing the two with each other can no longer catch a
// kernel bug; this file can.
func TestMinMemGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/minmem_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []minMemGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := goldenCases(t)
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i, g := range goldenTrees(t) {
		if got[i] != want[i] {
			t.Errorf("case %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
		if c := cacheCase(want[i], g.t); c != want[i] {
			t.Errorf("case %d, profile cache:\n got %+v\nwant %+v", i, c, want[i])
		}
	}
}
