package tree

import (
	"math/rand"
	"reflect"
	"testing"
)

// maxAllocs bounds the allocations of one New or OrderedPostorder call
// whatever the tree's size: the child lists are one flat array, not one
// slice per node.
const maxAllocs = 12

func randomParents(n int, seed int64) ([]int, []int64) {
	rng := rand.New(rand.NewSource(seed))
	parent := make([]int, n)
	weight := make([]int64, n)
	parent[0] = None
	for i := 1; i < n; i++ {
		parent[i] = rng.Intn(i)
		weight[i] = 1 + rng.Int63n(100)
	}
	return parent, weight
}

func TestAllocsIndependentOfN(t *testing.T) {
	for _, n := range []int{3000, 30000} {
		parent, weight := randomParents(n, 1)
		if a := testing.AllocsPerRun(5, func() { MustNew(parent, weight) }); a > maxAllocs {
			t.Errorf("New at n=%d: %.0f allocations, want at most %d", n, a, maxAllocs)
		}
		tr := MustNew(parent, weight)
		if a := testing.AllocsPerRun(5, func() { tr.NaturalPostorder() }); a > maxAllocs {
			t.Errorf("NaturalPostorder at n=%d: %.0f allocations, want at most %d", n, a, maxAllocs)
		}
	}
}

// lists snapshots every node's child list.
func lists(t *Tree) [][]int {
	out := make([][]int, t.N())
	for i := range out {
		out[i] = append([]int{}, t.Children(i)...)
	}
	return out
}

// TestChildrenAppendDoesNotAlias: appending to one node's child list
// leaves every other node's list unchanged.
func TestChildrenAppendDoesNotAlias(t *testing.T) {
	tr := MustNew(randomParents(500, 2))
	want := lists(tr)
	for i := 0; i < tr.N(); i++ {
		cs := tr.Children(i)
		if cap(cs) != len(cs) {
			t.Fatalf("Children(%d) has capacity %d beyond its %d entries", i, cap(cs), len(cs))
		}
		_ = append(cs, -1, -2)
	}
	if got := lists(tr); !reflect.DeepEqual(got, want) {
		t.Fatal("appending to child lists changed the tree")
	}
}

// TestChildrenAscending: New keeps every child list in ascending index
// order, the order every tie-break of the schedulers relies on.
func TestChildrenAscending(t *testing.T) {
	tr := MustNew(randomParents(2000, 3))
	seen := 0
	for i := 0; i < tr.N(); i++ {
		cs := tr.Children(i)
		for k, c := range cs {
			if tr.Parent(c) != i || (k > 0 && cs[k-1] >= c) {
				t.Fatalf("node %d: children %v", i, cs)
			}
		}
		seen += len(cs)
	}
	if seen != tr.N()-1 {
		t.Fatalf("%d child entries for %d nodes", seen, tr.N())
	}
}

// TestOrderedPostorder: the schedule visits the arranged lists depth
// first, and arrange sees every child before its parent.
func TestOrderedPostorder(t *testing.T) {
	tr := MustNew(randomParents(300, 4))
	done := make([]bool, tr.N())
	rev := tr.OrderedPostorder(func(v int, cs []int) {
		for _, c := range cs {
			if !done[c] {
				t.Fatalf("arrange(%d) before its child %d", v, c)
			}
		}
		done[v] = true
		for i, j := 0, len(cs)-1; i < j; i, j = i+1, j-1 {
			cs[i], cs[j] = cs[j], cs[i]
		}
	})
	// The same postorder, built recursively over reversed child lists.
	var want Schedule
	var visit func(v int)
	visit = func(v int) {
		cs := tr.Children(v)
		for k := len(cs) - 1; k >= 0; k-- {
			visit(cs[k])
		}
		want = append(want, v)
	}
	visit(tr.Root())
	if !reflect.DeepEqual(rev, want) {
		t.Fatal("OrderedPostorder differs from the recursive postorder")
	}
	if err := Validate(tr, rev); err != nil {
		t.Fatal(err)
	}
	want = want[:0]
	var natural func(v int)
	natural = func(v int) {
		for _, c := range tr.Children(v) {
			natural(c)
		}
		want = append(want, v)
	}
	natural(tr.Root())
	if got := tr.NaturalPostorder(); !reflect.DeepEqual(Schedule(got), want) {
		t.Fatal("NaturalPostorder differs from the recursive postorder")
	}
}
