package tree

import (
	"fmt"
	"math"
	"sort"
)

// None marks the absence of a parent (the root's parent index).
const None = -1

// Tree is an immutable rooted in-tree of tasks. Nodes are identified by
// dense integer indices in [0, N()). Edges are directed towards the root:
// each node has exactly one parent except the root.
//
// The zero Tree is empty and unusable; construct trees with New or one of
// the builders (Chain, Star, ...).
//
// The child lists are stored flat (compressed sparse rows): node i's
// children are kids[first[i]:first[i+1]], in ascending index order unless
// SortChildren reorders them. A tree is a handful of allocations whatever
// its size, so the garbage collector has no per-node objects to mark.
type Tree struct {
	parent []int
	first  []int32
	kids   []int
	weight []int64
	root   int
}

// New builds a tree from a parent vector and per-node output-data sizes.
// parent[i] is the node consuming i's output, or None for the root. The
// parent vector must describe a single connected tree, and all weights must
// be non-negative integers (the paper's memory unit model; zero weights
// arise for fully-evicted middle nodes of the expansion technique) whose
// sum fits in an int64 — the simulators and peak profiles accumulate
// weights, so a tree whose total overflows would corrupt every downstream
// invariant silently.
func New(parent []int, weight []int64) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return nil, fmt.Errorf("tree: empty parent vector")
	}
	if len(weight) != n {
		return nil, fmt.Errorf("tree: %d parents but %d weights", n, len(weight))
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("tree: %d nodes exceed the int32 child offsets", n)
	}
	t := &Tree{
		parent: make([]int, n),
		first:  make([]int32, n+1),
		weight: make([]int64, n),
		root:   None,
	}
	copy(t.parent, parent)
	copy(t.weight, weight)
	var total int64
	for i := 0; i < n; i++ {
		if weight[i] < 0 {
			return nil, fmt.Errorf("tree: node %d has negative weight %d", i, weight[i])
		}
		if total += weight[i]; total < 0 {
			return nil, fmt.Errorf("tree: total weight overflows int64 at node %d", i)
		}
		p := parent[i]
		switch {
		case p == None:
			if t.root != None {
				return nil, fmt.Errorf("tree: two roots (%d and %d)", t.root, i)
			}
			t.root = i
		case p < 0 || p >= n:
			return nil, fmt.Errorf("tree: node %d has out-of-range parent %d", i, p)
		case p == i:
			return nil, fmt.Errorf("tree: node %d is its own parent", i)
		default:
			t.first[p]++ // child count, turned into offsets below
		}
	}
	if t.root == None {
		return nil, fmt.Errorf("tree: no root")
	}
	// Offsets: first[i] becomes the end of i's list, and filling the
	// lists back to front moves it to the start. Children land in
	// ascending index order.
	var end int32
	for i := 0; i < n; i++ {
		end += t.first[i]
		t.first[i] = end
	}
	t.first[n] = end
	t.kids = make([]int, end)
	for i := n - 1; i >= 0; i-- {
		if p := parent[i]; p != None {
			t.first[p]--
			t.kids[t.first[p]] = i
		}
	}
	// Connectivity (equivalently, acyclicity given n-1 edges): every node
	// must reach the root without revisiting anyone. The first walk marks
	// i's path up to a finished node, the second marks it finished.
	seen := make([]uint8, n) // 0 unknown, 1 on current path, 2 done
	seen[t.root] = 2
	for i := 0; i < n; i++ {
		v := i
		for ; seen[v] == 0; v = t.parent[v] {
			seen[v] = 1
		}
		if seen[v] == 1 {
			return nil, fmt.Errorf("tree: cycle through node %d", v)
		}
		for v := i; seen[v] == 1; v = t.parent[v] {
			seen[v] = 2
		}
	}
	return t, nil
}

// MustNew is New but panics on error; intended for tests and literals.
func MustNew(parent []int, weight []int64) *Tree {
	t, err := New(parent, weight)
	if err != nil {
		panic(err)
	}
	return t
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.parent) }

// Root returns the root node index.
func (t *Tree) Root() int { return t.root }

// Parent returns i's parent, or None if i is the root.
func (t *Tree) Parent(i int) int { return t.parent[i] }

// Children returns i's children. The returned slice is owned by the tree
// and must not be mutated; its capacity ends with the list, so appending
// to it copies instead of overwriting the next node's children.
func (t *Tree) Children(i int) []int {
	lo, hi := t.first[i], t.first[i+1]
	return t.kids[lo:hi:hi]
}

// NumChildren returns the number of children of i.
func (t *Tree) NumChildren(i int) int { return int(t.first[i+1] - t.first[i]) }

// IsLeaf reports whether i has no children.
func (t *Tree) IsLeaf(i int) bool { return t.first[i+1] == t.first[i] }

// Weight returns the size w_i of i's output data.
func (t *Tree) Weight(i int) int64 { return t.weight[i] }

// Weights returns a copy of the weight vector.
func (t *Tree) Weights() []int64 {
	w := make([]int64, len(t.weight))
	copy(w, t.weight)
	return w
}

// Parents returns a copy of the parent vector.
func (t *Tree) Parents() []int {
	p := make([]int, len(t.parent))
	copy(p, t.parent)
	return p
}

// ChildrenSum returns Σ_{j child of i} Weight(j).
func (t *Tree) ChildrenSum(i int) int64 {
	var s int64
	for _, c := range t.Children(i) {
		s += t.weight[c]
	}
	return s
}

// WBar returns w̄(i) = max(w_i, Σ_{j child of i} w_j), the memory needed to
// execute node i when nothing else is resident.
func (t *Tree) WBar(i int) int64 {
	s := t.ChildrenSum(i)
	if w := t.weight[i]; w > s {
		return w
	}
	return s
}

// MaxWBar returns LB = max_i w̄(i), the minimum memory size for which the
// tree can be processed at all (Section 6 of the paper calls this LB).
func (t *Tree) MaxWBar() int64 {
	var m int64
	for i := range t.parent {
		if wb := t.WBar(i); wb > m {
			m = wb
		}
	}
	return m
}

// TotalWeight returns Σ_i w_i.
func (t *Tree) TotalWeight() int64 {
	var s int64
	for _, w := range t.weight {
		s += w
	}
	return s
}

// Depth returns the number of edges on the longest root-to-leaf path.
func (t *Tree) Depth() int {
	depth := make([]int, t.N())
	max := 0
	for _, v := range t.TopDown() {
		if p := t.parent[v]; p != None {
			depth[v] = depth[p] + 1
			if depth[v] > max {
				max = depth[v]
			}
		}
	}
	return max
}

// Leaves returns all leaf nodes in increasing index order.
func (t *Tree) Leaves() []int {
	var ls []int
	for i := range t.parent {
		if t.IsLeaf(i) {
			ls = append(ls, i)
		}
	}
	return ls
}

// TopDown returns the nodes in an order where every parent precedes its
// children (BFS from the root).
func (t *Tree) TopDown() []int {
	order := make([]int, 0, t.N())
	order = append(order, t.root)
	for head := 0; head < len(order); head++ {
		order = append(order, t.Children(order[head])...)
	}
	return order
}

// BottomUp returns the reverse of TopDown: every child precedes its parent.
// It is a valid (postorder-free) topological schedule.
func (t *Tree) BottomUp() []int {
	td := t.TopDown()
	for i, j := 0, len(td)-1; i < j; i, j = i+1, j-1 {
		td[i], td[j] = td[j], td[i]
	}
	return td
}

// NaturalPostorder returns the depth-first postorder that visits children
// in their natural (construction) order.
func (t *Tree) NaturalPostorder() []int {
	return t.OrderedPostorder(nil)
}

// OrderedPostorder returns the depth-first postorder that visits the
// children of every node v in the order arrange(v, cs) leaves in cs. cs
// starts as a copy of v's child list in the tree's order, and arrange is
// called on every node after all of its children (bottom-up), so it may
// sort cs by keys it computed for the children and then compute v's own.
// A nil arrange keeps the tree's order. The child lists live in one flat
// copy and the schedule is laid out by subtree sizes, so the walk makes a
// fixed number of allocations and no recursion, whatever the tree's depth.
func (t *Tree) OrderedPostorder(arrange func(v int, cs []int)) Schedule {
	n := t.N()
	kids := t.kids
	if arrange != nil {
		kids = append([]int(nil), t.kids...)
	}
	order := t.TopDown()
	// at[v] is v's subtree size until v's parent is placed, then v's
	// position in the schedule.
	at := make([]int32, n)
	for k := n - 1; k >= 0; k-- {
		v := order[k]
		cs := kids[t.first[v]:t.first[v+1]:t.first[v+1]]
		if arrange != nil {
			arrange(v, cs)
		}
		at[v] = 1
		for _, c := range cs {
			at[v] += at[c]
		}
	}
	sched := make(Schedule, n)
	at[t.root] = int32(n - 1)
	for _, v := range order {
		// The last child ends just before v; each earlier sibling ends
		// where the next one's subtree starts.
		p := at[v]
		sched[p] = v
		cs := kids[t.first[v]:t.first[v+1]]
		for k := len(cs) - 1; k >= 0; k-- {
			c := cs[k]
			size := at[c]
			at[c] = p - 1
			p -= size
		}
	}
	return sched
}

// SubtreeSizes returns, for every node, the number of nodes in its subtree
// (itself included).
func (t *Tree) SubtreeSizes() []int {
	size := make([]int, t.N())
	for _, v := range t.BottomUp() {
		size[v] = 1
		for _, c := range t.Children(v) {
			size[v] += size[c]
		}
	}
	return size
}

// SubtreeNodes returns the nodes of the subtree rooted at r, r first, in
// top-down order.
func (t *Tree) SubtreeNodes(r int) []int {
	nodes := []int{r}
	for head := 0; head < len(nodes); head++ {
		nodes = append(nodes, t.Children(nodes[head])...)
	}
	return nodes
}

// Subtree extracts the subtree rooted at r as a standalone tree. It returns
// the new tree and toOld, mapping new indices to indices of t.
func (t *Tree) Subtree(r int) (sub *Tree, toOld []int) {
	nodes := t.SubtreeNodes(r)
	toNew := make(map[int]int, len(nodes))
	for i, v := range nodes {
		toNew[v] = i
	}
	parent := make([]int, len(nodes))
	weight := make([]int64, len(nodes))
	for i, v := range nodes {
		weight[i] = t.weight[v]
		if v == r {
			parent[i] = None
		} else {
			parent[i] = toNew[t.parent[v]]
		}
	}
	sub = MustNew(parent, weight)
	return sub, nodes
}

// WithWeights returns a copy of the tree with the same shape and new weights.
func (t *Tree) WithWeights(weight []int64) (*Tree, error) {
	return New(t.parent, weight)
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	return MustNew(t.Parents(), t.Weights())
}

// Ancestors returns i's proper ancestors, closest first (parent, grand-
// parent, ..., root).
func (t *Tree) Ancestors(i int) []int {
	var as []int
	for v := t.parent[i]; v != None; v = t.parent[v] {
		as = append(as, v)
	}
	return as
}

// String summarizes the tree.
func (t *Tree) String() string {
	return fmt.Sprintf("tree{n=%d root=%d leaves=%d depth=%d totalW=%d LB=%d}",
		t.N(), t.root, len(t.Leaves()), t.Depth(), t.TotalWeight(), t.MaxWBar())
}

// SortChildren reorders every node's child list using less (a strict weak
// ordering on node indices). It returns the tree to allow chaining. The
// natural postorder is affected; the structure is not. Sorting is stable.
func (t *Tree) SortChildren(less func(a, b int) bool) *Tree {
	for i := range t.parent {
		cs := t.kids[t.first[i]:t.first[i+1]]
		sort.SliceStable(cs, func(x, y int) bool { return less(cs[x], cs[y]) })
	}
	return t
}
