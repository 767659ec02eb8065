package liu

import (
	"math/rand"
	"testing"

	"repro/internal/brute"
	"repro/internal/memsim"
	"repro/internal/tree"
)

func TestMinMemLeaf(t *testing.T) {
	tr := tree.Chain(7)
	sched, peak := MinMem(tr)
	if peak != 7 || len(sched) != 1 || sched[0] != 0 {
		t.Fatalf("sched=%v peak=%d", sched, peak)
	}
}

func TestMinMemChain(t *testing.T) {
	// Chains have a single topological order; peak = max w̄.
	tr := tree.Chain(3, 9, 2, 6)
	sched, peak := MinMem(tr)
	if !tree.IsTopological(tr, sched) {
		t.Fatalf("not topological: %v", sched)
	}
	if peak != 9 {
		t.Fatalf("peak=%d want 9", peak)
	}
}

func TestMinMemStar(t *testing.T) {
	// All children must be resident at the root: peak = max(w̄ values).
	tr := tree.Star(2, 4, 1, 3)
	sched, peak := MinMem(tr)
	if !tree.IsTopological(tr, sched) {
		t.Fatal("not topological")
	}
	if peak != 8 {
		t.Fatalf("peak=%d want 8", peak)
	}
}

func TestMinMemFig2bPeak(t *testing.T) {
	// The paper states OPTMINMEM reaches peak 8 on the Figure 2(b)
	// tree, versus 9 for the postorder.
	tr := tree.Graft(1, tree.Chain(3, 5, 2, 6), tree.Chain(3, 5, 2, 6))
	sched, peak := MinMem(tr)
	if peak != 8 {
		t.Fatalf("peak=%d want 8", peak)
	}
	got, err := memsim.Peak(tr, sched)
	if err != nil {
		t.Fatal(err)
	}
	if got != peak {
		t.Fatalf("declared peak %d but simulated %d", peak, got)
	}
	_, popeak := PostOrderMinMem(tr)
	if popeak != 9 {
		t.Fatalf("postorder peak=%d want 9", popeak)
	}
}

func TestMinMemFig2cPeak(t *testing.T) {
	// Section 4.4: OPTMINMEM reaches peak 5k on the Figure 2(c) family
	// (the best postorder needs 6k).
	for k := int64(1); k <= 6; k++ {
		var ws []int64
		for j := int64(0); j <= k; j++ {
			ws = append(ws, 2*k-j, 3*k+j)
		}
		tr := tree.Graft(1, tree.Chain(ws...), tree.Chain(ws...))
		_, peak := MinMem(tr)
		if peak != 5*k {
			t.Fatalf("k=%d: peak=%d want %d", k, peak, 5*k)
		}
		_, popeak := PostOrderMinMem(tr)
		if popeak != 6*k {
			t.Fatalf("k=%d: postorder peak=%d want %d", k, popeak, 6*k)
		}
	}
}

func TestMinMemMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		tr := randomTree(1+rng.Intn(8), rng)
		sched, peak := MinMem(tr)
		if !tree.IsTopological(tr, sched) {
			t.Fatalf("trial %d: schedule invalid", trial)
		}
		sim, err := memsim.Peak(tr, sched)
		if err != nil {
			t.Fatal(err)
		}
		if sim != peak {
			t.Fatalf("trial %d: declared %d simulated %d", trial, peak, sim)
		}
		opt, err := brute.OptimalPeak(tr)
		if err != nil {
			t.Fatal(err)
		}
		if peak != opt {
			t.Fatalf("trial %d: MinMem peak %d but optimal %d on parents=%v weights=%v",
				trial, peak, opt, tr.Parents(), tr.Weights())
		}
	}
}

func TestPostOrderMinMemIsBestPostorder(t *testing.T) {
	// Exhaustively compare against every postorder (child permutations)
	// on small trees.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		tr := randomTree(1+rng.Intn(7), rng)
		sched, peak := PostOrderMinMem(tr)
		if !tree.IsPostorder(tr, sched) {
			t.Fatalf("trial %d: not a postorder", trial)
		}
		sim, err := memsim.Peak(tr, sched)
		if err != nil {
			t.Fatal(err)
		}
		if sim != peak {
			t.Fatalf("trial %d: declared %d simulated %d", trial, peak, sim)
		}
		best := bestPostorderPeak(tr)
		if peak != best {
			t.Fatalf("trial %d: got %d want %d", trial, peak, best)
		}
	}
}

// bestPostorderPeak enumerates all postorders by trying every child
// permutation at every node.
func bestPostorderPeak(tr *tree.Tree) int64 {
	var best int64 = 1 << 62
	var enumerate func(order [][]int, node int, done func())
	// Build child orders per node, then evaluate.
	perms := func(xs []int) [][]int {
		if len(xs) == 0 {
			return [][]int{{}}
		}
		var out [][]int
		var rec func(cur []int, rest []int)
		rec = func(cur, rest []int) {
			if len(rest) == 0 {
				out = append(out, append([]int(nil), cur...))
				return
			}
			for i := range rest {
				next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
				rec(append(cur, rest[i]), next)
			}
		}
		rec(nil, xs)
		return out
	}
	_ = enumerate
	nodes := tr.TopDown()
	choice := make([][][]int, tr.N())
	for _, v := range nodes {
		choice[v] = perms(tr.Children(v))
	}
	idx := make([]int, tr.N())
	var walk func(k int)
	walk = func(k int) {
		if k == len(nodes) {
			var sched tree.Schedule
			var emit func(v int)
			emit = func(v int) {
				for _, c := range choice[v][idx[v]] {
					emit(c)
				}
				sched = append(sched, v)
			}
			emit(tr.Root())
			p, err := memsim.Peak(tr, sched)
			if err != nil {
				panic(err)
			}
			if p < best {
				best = p
			}
			return
		}
		v := nodes[k]
		for i := range choice[v] {
			idx[v] = i
			walk(k + 1)
		}
	}
	walk(0)
	return best
}

func TestMinMemNeverWorseThanPostorder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	strictly := false
	for trial := 0; trial < 200; trial++ {
		tr := randomTree(2+rng.Intn(30), rng)
		_, opt := MinMem(tr)
		_, po := PostOrderMinMem(tr)
		if opt > po {
			t.Fatalf("trial %d: MinMem %d > PostOrderMinMem %d", trial, opt, po)
		}
		if opt < po {
			strictly = true
		}
		if lb := tr.MaxWBar(); opt < lb {
			t.Fatalf("trial %d: peak %d below LB %d", trial, opt, lb)
		}
	}
	if !strictly {
		t.Error("expected MinMem to strictly beat the best postorder somewhere")
	}
}

func TestMinMemDeepChainNoOverflow(t *testing.T) {
	// 200k-node chain: exercises the explicit stacks in MinMem.
	n := 200_000
	parent := make([]int, n)
	weight := make([]int64, n)
	parent[0] = tree.None
	weight[0] = 1
	for i := 1; i < n; i++ {
		parent[i] = i - 1
		weight[i] = int64(1 + i%5)
	}
	tr := tree.MustNew(parent, weight)
	sched, peak := MinMem(tr)
	if len(sched) != n {
		t.Fatalf("schedule length %d", len(sched))
	}
	if peak != tr.MaxWBar() {
		t.Fatalf("chain peak %d want %d", peak, tr.MaxWBar())
	}
}

func TestCanonicalProfileInvariant(t *testing.T) {
	// The root profile must have strictly decreasing hills and strictly
	// increasing valleys (cumulative), ending at the root weight.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		tr := randomTree(1+rng.Intn(40), rng)
		prof, _ := minMemProfile(tr, tr.Root())
		var r, prevHill, prevValley int64
		prevHill = 1 << 62
		prevValley = -1
		for i, s := range prof {
			hill := r + s.hill
			valley := r + s.valley
			if hill >= prevHill {
				t.Fatalf("trial %d: hills not strictly decreasing at %d", trial, i)
			}
			if valley <= prevValley {
				t.Fatalf("trial %d: valleys not strictly increasing at %d", trial, i)
			}
			if hill < valley {
				t.Fatalf("trial %d: hill %d below valley %d", trial, hill, valley)
			}
			prevHill, prevValley = hill, valley
			r = valley
		}
		if r != tr.Weight(tr.Root()) {
			t.Fatalf("trial %d: final valley %d ≠ root weight %d", trial, r, tr.Weight(tr.Root()))
		}
	}
}

// randomTree attaches each node to a random earlier node.
func randomTree(n int, rng *rand.Rand) *tree.Tree {
	parent := make([]int, n)
	weight := make([]int64, n)
	parent[0] = tree.None
	weight[0] = 1 + rng.Int63n(12)
	for i := 1; i < n; i++ {
		parent[i] = rng.Intn(i)
		weight[i] = 1 + rng.Int63n(12)
	}
	return tree.MustNew(parent, weight)
}
