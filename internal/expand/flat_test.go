package expand

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/randtree"
	"repro/internal/tree"
)

// maxAllocs bounds the allocations of one NewMutable call whatever the
// tree's size: the child lists are copied into one flat array.
const maxAllocs = 12

func TestNewMutableAllocsIndependentOfN(t *testing.T) {
	for _, n := range []int{3000, 30000} {
		tr := randtree.Synth(n, rand.New(rand.NewSource(1)))
		if a := testing.AllocsPerRun(5, func() { NewMutable(tr) }); a > maxAllocs {
			t.Errorf("NewMutable at n=%d: %.0f allocations, want at most %d", n, a, maxAllocs)
		}
	}
}

// mutableLists snapshots every node's child list.
func mutableLists(m *MutableTree) [][]int {
	out := make([][]int, m.N())
	for i := range out {
		out[i] = append([]int{}, m.Children(i)...)
	}
	return out
}

// TestMutableChildrenDoNotAlias: appending to one node's child list
// leaves every other list unchanged, and a chain of expansions changes
// exactly the lists it rewires: i3 replaces i in the parent's list, i3's
// list is [i2] and i2's is [i]. The expected lists are built from the
// snapshot taken before the calls.
func TestMutableChildrenDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randtree.Synth(400, rng)
	m := NewMutable(tr)
	want := mutableLists(m)
	for k := 0; k < 300; k++ {
		i := rng.Intn(m.N())
		if m.Weight(i) == 0 {
			continue
		}
		p := m.Parent(i)
		i2, i3, err := m.Expand(i, 1+rng.Int63n(m.Weight(i)))
		if err != nil {
			t.Fatal(err)
		}
		if p != tree.None {
			for s, c := range want[p] {
				if c == i {
					want[p][s] = i3
				}
			}
		}
		want = append(want, []int{i}, []int{i2})
		if got := mutableLists(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("after expanding %d (step %d) the child lists differ from the expected ones", i, k)
		}
		for v, r := range m.ChildRanks() {
			if q := m.Parent(v); q != tree.None && m.Children(q)[r] != v {
				t.Fatalf("step %d: node %d has rank %d in %v", k, v, r, m.Children(q))
			}
		}
	}
	for i := 0; i < m.N(); i++ {
		cs := m.Children(i)
		if cap(cs) != len(cs) {
			t.Fatalf("Children(%d) has capacity %d beyond its %d entries", i, cap(cs), len(cs))
		}
		_ = append(cs, -1)
	}
	if got := mutableLists(m); !reflect.DeepEqual(got, want) {
		t.Fatal("appending to child lists changed the tree")
	}
}
