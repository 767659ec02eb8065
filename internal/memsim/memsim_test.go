package memsim

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tree"
)

// twoChains is the Figure 2(b) tree: unit root over two 3,5,2,6 chains.
func twoChains() *tree.Tree {
	return tree.Graft(1, tree.Chain(3, 5, 2, 6), tree.Chain(3, 5, 2, 6))
}

func TestPeakSimpleChain(t *testing.T) {
	// Chain root(3) <- mid(5) <- leaf(2): leaf: 2; mid: max(5,2)=5;
	// root: max(3,5)=5. Peak 5.
	c := tree.Chain(3, 5, 2)
	p, err := Peak(c, tree.Schedule{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p != 5 {
		t.Fatalf("peak=%d want 5", p)
	}
}

func TestPeakStar(t *testing.T) {
	// Star root(1) with leaves 2,3,4: leaves accumulate, then root
	// needs max(1, 9) = 9. Peak 9 whatever the leaf order.
	s := tree.Star(1, 2, 3, 4)
	p, err := Peak(s, tree.Schedule{1, 2, 3, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p != 9 {
		t.Fatalf("peak=%d want 9", p)
	}
}

func TestRunChainAfterChainFig2b(t *testing.T) {
	tr := twoChains()
	sched := tree.Schedule{4, 3, 2, 1, 8, 7, 6, 5, 0}
	res, err := RunTraced(tr, 6, sched, FiF)
	if err != nil {
		t.Fatal(err)
	}
	if res.IO != 3 {
		t.Errorf("IO=%d want 3 (paper, Section 4.4)", res.IO)
	}
	if res.Peak != 9 {
		t.Errorf("peak=%d want 9", res.Peak)
	}
	// All I/O is paid on the first chain's top node (id 1), evicted
	// while the second chain's leaf executes.
	if res.Tau[1] != 3 {
		t.Errorf("tau=%v want 3 on node 1", res.Tau)
	}
	if len(res.Trace) != tr.N() {
		t.Errorf("trace has %d steps", len(res.Trace))
	}
	var evictedAt int
	for _, st := range res.Trace {
		if st.Evicted > 0 {
			evictedAt = st.Node
		}
	}
	if evictedAt != 8 {
		t.Errorf("eviction at node %d, want 8 (second chain's leaf)", evictedAt)
	}
}

func TestRunErrors(t *testing.T) {
	tr := twoChains()
	if _, err := Run(tr, 6, tree.Schedule{0, 1, 2, 3, 4, 5, 6, 7, 8}, FiF); err == nil {
		t.Error("non-topological schedule accepted")
	}
	if _, err := Run(tr, 5, tree.Schedule{4, 3, 2, 1, 8, 7, 6, 5, 0}, FiF); err == nil {
		t.Error("M below w̄ accepted")
	}
	if _, err := Run(tr, 6, tree.Schedule{4, 3}, FiF); err == nil {
		t.Error("short schedule accepted")
	}
}

func TestIOZeroWhenMemoryAmple(t *testing.T) {
	tr := twoChains()
	sched := tree.Schedule{4, 3, 2, 1, 8, 7, 6, 5, 0}
	res, err := Run(tr, 100, sched, FiF)
	if err != nil {
		t.Fatal(err)
	}
	if res.IO != 0 {
		t.Errorf("IO=%d want 0", res.IO)
	}
	for i, ti := range res.Tau {
		if ti != 0 {
			t.Errorf("tau[%d]=%d", i, ti)
		}
	}
}

func TestIOMonotoneInM(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		tr := randomTree(2+rng.Intn(20), rng)
		sched := tr.NaturalPostorder()
		lb := tr.MaxWBar()
		peak, err := Peak(tr, sched)
		if err != nil {
			t.Fatal(err)
		}
		prev := int64(-1)
		for M := peak; M >= lb; M-- {
			io, err := IOOf(tr, M, sched)
			if err != nil {
				t.Fatal(err)
			}
			if prev >= 0 && io < prev {
				t.Fatalf("I/O not monotone: M=%d io=%d, M=%d io=%d", M+1, prev, M, io)
			}
			prev = io
		}
		// At M = peak, no I/O at all.
		io, _ := IOOf(tr, peak, sched)
		if io != 0 {
			t.Fatalf("io=%d at M=peak", io)
		}
	}
}

func TestFiFBeatsOtherPoliciesOnAverage(t *testing.T) {
	// Theorem 1: for a fixed schedule, FiF is optimal; hence it is never
	// worse than NiF or LargestFirst on any instance.
	rng := rand.New(rand.NewSource(21))
	beatenNiF, beatenLF := false, false
	for trial := 0; trial < 300; trial++ {
		tr := randomTree(3+rng.Intn(15), rng)
		sched := tr.NaturalPostorder()
		lb := tr.MaxWBar()
		peak, _ := Peak(tr, sched)
		if peak <= lb {
			continue
		}
		M := (lb + peak) / 2
		fif, err := Run(tr, M, sched, FiF)
		if err != nil {
			t.Fatal(err)
		}
		nif, err := Run(tr, M, sched, NiF)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := Run(tr, M, sched, LargestFirst)
		if err != nil {
			t.Fatal(err)
		}
		if fif.IO > nif.IO {
			t.Fatalf("FiF (%d) worse than NiF (%d) on %v M=%d", fif.IO, nif.IO, tr.Parents(), M)
		}
		if fif.IO > lf.IO {
			t.Fatalf("FiF (%d) worse than LargestFirst (%d)", fif.IO, lf.IO)
		}
		if fif.IO < nif.IO {
			beatenNiF = true
		}
		if fif.IO < lf.IO {
			beatenLF = true
		}
	}
	if !beatenNiF || !beatenLF {
		t.Error("expected FiF to strictly beat both baselines somewhere")
	}
}

func TestTauNeverExceedsWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		tr := randomTree(2+rng.Intn(25), rng)
		sched := tr.BottomUp()
		lb := tr.MaxWBar()
		res, err := Run(tr, lb, sched, FiF)
		if err != nil {
			t.Fatal(err)
		}
		for i, ti := range res.Tau {
			if ti < 0 || ti > tr.Weight(i) {
				t.Fatalf("tau[%d]=%d weight=%d", i, ti, tr.Weight(i))
			}
		}
		if err := Validate(tr, lb, sched, res.Tau); err != nil {
			t.Fatalf("FiF result fails Validate: %v", err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	// root(1){x(3){leaf(5)}, y(3){leaf(5)}}: LB = 6 (the root's input
	// sum and each chain's w̄ are at most 6... w̄(x)=5, w̄(root)=6).
	tr := tree.Graft(1, tree.Chain(3, 5), tree.Chain(3, 5))
	sched := tree.Schedule{2, 1, 4, 3, 0} // leaf, x, leaf, y, root
	// M=8: works with zero tau (peak is 3+5 at the second leaf).
	zero := make([]int64, 5)
	if err := Validate(tr, 8, sched, zero); err != nil {
		t.Fatal(err)
	}
	// M=6: executing the second leaf with x resident needs tau(x) >= 2.
	if err := Validate(tr, 6, sched, zero); err == nil {
		t.Error("overflow accepted")
	} else if !strings.Contains(err.Error(), "active resident") {
		t.Errorf("unexpected error: %v", err)
	}
	if err := Validate(tr, 6, sched, []int64{0, 2, 0, 0, 0}); err != nil {
		t.Errorf("valid tau rejected: %v", err)
	}
	if err := Validate(tr, 8, sched, []int64{0, 9, 0, 0, 0}); err == nil {
		t.Error("tau above weight accepted")
	}
	if err := Validate(tr, 8, sched, []int64{0, -1, 0, 0, 0}); err == nil {
		t.Error("negative tau accepted")
	}
	if err := Validate(tr, 8, sched, []int64{0, 0}); err == nil {
		t.Error("short tau accepted")
	}
	if err := Validate(tr, 8, tree.Schedule{0, 1, 2, 3, 4}, zero); err == nil {
		t.Error("non-topological accepted")
	}
}

func TestValidateWBarAtRoot(t *testing.T) {
	// Validate must also catch the case where the node's own w̄ exceeds
	// M even with an empty active set.
	tr := tree.Star(1, 5, 5)
	if err := Validate(tr, 9, tree.Schedule{1, 2, 0}, []int64{0, 5, 0}); err == nil {
		t.Error("root w̄=10 > M=9 accepted")
	}
}

func TestPoliciesString(t *testing.T) {
	if FiF.String() != "FiF" || NiF.String() != "NiF" || LargestFirst.String() != "LargestFirst" {
		t.Error("policy names")
	}
	if EvictionPolicy(42).String() == "" {
		t.Error("unknown policy name empty")
	}
}

func TestHeapBasics(t *testing.T) {
	h := &NodeHeap{}
	if h.Peek() != -1 {
		t.Fatal("empty peek")
	}
	h.Push(3, 5)
	h.Push(1, 2)
	h.Push(7, 9)
	h.Push(4, 2) // tie with node 1: smaller id wins
	if h.Peek() != 1 {
		t.Fatalf("peek=%d", h.Peek())
	}
	h.Remove(1)
	if h.Peek() != 4 {
		t.Fatalf("peek=%d after remove", h.Peek())
	}
	h.Remove(7)
	h.Remove(4)
	if h.Peek() != 3 || h.len() != 1 {
		t.Fatalf("peek=%d len=%d", h.Peek(), h.len())
	}
	resident := []int64{0, 0, 0, 9, 0, 0, 0, 0}
	if h.largest(resident) != 3 {
		t.Fatal("largest")
	}
	defer func() {
		if recover() == nil {
			t.Error("double push should panic")
		}
	}()
	h.Push(3, 1)
}

func TestHeapRemoveAbsentPanics(t *testing.T) {
	h := &NodeHeap{}
	h.Push(1, 1)
	defer func() {
		if recover() == nil {
			t.Error("remove absent should panic")
		}
	}()
	h.Remove(2)
}

// TestHeapHoldsOnlyLiveOutputs steps the simulator one node at a time and
// checks after every step that the eviction heap holds exactly the live
// outputs: executed, not the root, parent not yet executed, not fully
// evicted. Consumed children left behind as dead entries would leave a
// 500-node chain with 499 entries at the end.
func TestHeapHoldsOnlyLiveOutputs(t *testing.T) {
	weights := make([]int64, 500)
	for i := range weights {
		weights[i] = 1
	}
	chain := tree.Chain(weights...)
	rnd := randomTree(300, rand.New(rand.NewSource(11)))
	cases := []struct {
		name  string
		tr    *tree.Tree
		sched tree.Schedule
	}{
		{"chain500", chain, chain.NaturalPostorder()},
		{"random300-postorder", rnd, rnd.NaturalPostorder()},
		{"random300-topological", rnd, randomTopological(rnd, rand.New(rand.NewSource(12)))},
	}
	for _, c := range cases {
		root := c.tr.Root()
		lb := c.tr.MaxWBar()
		peak, err := Peak(c.tr, c.sched)
		if err != nil {
			t.Fatal(err)
		}
		for _, M := range []int64{lb, (lb + peak) / 2} {
			for _, pol := range []EvictionPolicy{FiF, NiF, LargestFirst} {
				var s Simulator
				s.Begin(c.tr, root, M, pol)
				if err := s.Index(c.sched); err != nil {
					t.Fatal(err)
				}
				for k := range c.sched {
					if err := s.Step(c.sched[k : k+1]); err != nil {
						t.Fatal(err)
					}
					live := 0
					for _, u := range c.sched[:k+1] {
						want := u != root && s.pos[c.tr.Parent(u)] > int32(k) && s.resident[u] > 0
						if in := s.h.idx[u] >= 0; in != want {
							t.Fatalf("%s M=%d %v step %d: node %d in heap=%v, live=%v", c.name, M, pol, k, u, in, want)
						}
						if want {
							live++
						}
					}
					if s.h.len() != live {
						t.Fatalf("%s M=%d %v step %d: heap holds %d entries, %d live outputs", c.name, M, pol, k, s.h.len(), live)
					}
				}
				if _, _, err := s.End(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// randomTree builds a random tree by attaching each node to a random
// earlier node, with weights in [1, 20].
func randomTree(n int, rng *rand.Rand) *tree.Tree {
	parent := make([]int, n)
	weight := make([]int64, n)
	parent[0] = tree.None
	weight[0] = 1 + rng.Int63n(20)
	for i := 1; i < n; i++ {
		parent[i] = rng.Intn(i)
		weight[i] = 1 + rng.Int63n(20)
	}
	return tree.MustNew(parent, weight)
}
