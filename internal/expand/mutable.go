package expand

import (
	"fmt"

	"repro/internal/liu"
	"repro/internal/tree"
)

// Role distinguishes the three links of an expansion chain.
type Role uint8

const (
	// RolePrimary marks a node that executes an original task (i1 keeps
	// the identity of the expanded node).
	RolePrimary Role = iota
	// RoleMiddle marks the i2 link, whose reduced weight represents the
	// period during which τ(i) units sit on disk.
	RoleMiddle
	// RoleRead marks the i3 link, modelling the read-back of the data
	// just before the parent's execution.
	RoleRead
)

// MutableTree is a growable task tree supporting node expansion while
// remembering, for every node, which original task it stems from.
//
// The child lists are stored flat like tree.Tree's: node i's children are
// kids[first[i]:first[i+1]]. An expansion never changes the length of a
// list (i3 takes i's slot in the parent's list) and each of its two new
// nodes has exactly one child, so the layout only grows at its end.
type MutableTree struct {
	parent []int
	first  []int32
	kids   []int
	weight []int64
	orig   []int
	role   []Role
	rank   []int32 // position in the parent's child list
	root   int

	expansionIO int64
	expansions  int

	// profiles, when enabled, memoizes the optimal hill–valley profile of
	// every subtree; Expand keeps it consistent by invalidating exactly
	// the root-path of the expansion site.
	profiles *liu.ProfileCache
}

// NewMutable copies t into a fresh mutable tree. Node ids 0..t.N()-1 match
// the original ids.
func NewMutable(t *tree.Tree) *MutableTree {
	n := t.N()
	// Every expansion appends two nodes. The room holds n/512 + 64
	// expansions: twice the 998 that RecExpand makes on the 10⁶-node
	// staircase at Mid, and more than the 48 of the worst SYNTH 3 000 tree
	// of the paper's dataset. Those land without copying the per-node
	// arrays; past the room, append grows them.
	room := n + n/256 + 128
	m := &MutableTree{
		parent: make([]int, n, room),
		first:  make([]int32, n+1, room+1),
		kids:   make([]int, 0, room),
		weight: make([]int64, n, room),
		orig:   make([]int, n, room),
		role:   make([]Role, n, room), // RolePrimary
		rank:   make([]int32, n, room),
		root:   t.Root(),
	}
	for i := 0; i < n; i++ {
		cs := t.Children(i)
		for k, c := range cs {
			m.rank[c] = int32(k)
		}
		m.kids = append(m.kids, cs...)
		m.first[i+1] = int32(len(m.kids))
		m.parent[i] = t.Parent(i)
		m.weight[i] = t.Weight(i)
		m.orig[i] = i
	}
	return m
}

// N returns the current number of nodes.
func (m *MutableTree) N() int { return len(m.parent) }

// Root returns the current root (a RoleRead node if the original root was
// expanded, though the heuristics never expand a subtree root).
func (m *MutableTree) Root() int { return m.root }

// Weight returns the current weight of node i.
func (m *MutableTree) Weight(i int) int64 { return m.weight[i] }

// Orig returns the original task from which node i stems.
func (m *MutableTree) Orig(i int) int { return m.orig[i] }

// Role returns the expansion role of node i.
func (m *MutableTree) Role(i int) Role { return m.role[i] }

// Children returns node i's current children (owned by the tree). As with
// tree.Tree, the slice's capacity ends with the list.
func (m *MutableTree) Children(i int) []int {
	lo, hi := m.first[i], m.first[i+1]
	return m.kids[lo:hi:hi]
}

// Parent returns node i's current parent, or tree.None for the root.
func (m *MutableTree) Parent(i int) int { return m.parent[i] }

// ChildRanks returns, for every node, its position in its parent's child
// list (the memsim.ChildRanker extension). Sibling ranks reproduce the id
// order an extracted copy of a subtree would assign, which keeps in-place
// simulations bit-identical to extract-and-simulate. The slice is owned by
// the tree and valid until the next Expand.
func (m *MutableTree) ChildRanks() []int32 { return m.rank }

// ExpansionIO returns the accumulated volume of all expansions so far.
func (m *MutableTree) ExpansionIO() int64 { return m.expansionIO }

// Expansions returns the number of Expand calls performed.
func (m *MutableTree) Expansions() int { return m.expansions }

// Expand replaces node i (current weight w) by the chain i → i2 → i3 with
// weights w, w−amount, w, where i3 takes i's place below i's parent. The
// expanded node may itself be a link of a previous expansion. It returns
// the ids of the two new nodes.
func (m *MutableTree) Expand(i int, amount int64) (i2, i3 int, err error) {
	if i < 0 || i >= m.N() {
		return 0, 0, fmt.Errorf("expand: node %d out of range", i)
	}
	w := m.weight[i]
	if amount <= 0 || amount > w {
		return 0, 0, fmt.Errorf("expand: amount %d out of (0, %d] for node %d", amount, w, i)
	}
	p := m.parent[i]
	i2 = m.addNode(w-amount, m.orig[i], RoleMiddle, i)
	i3 = m.addNode(w, m.orig[i], RoleRead, i2)
	if p == tree.None {
		m.root = i3
	} else {
		m.kids[m.first[p]+m.rank[i]] = i3 // i3 takes i's slot below p
	}
	m.parent[i3] = p
	m.rank[i3] = m.rank[i]
	m.parent[i2] = i3
	m.parent[i] = i2
	m.rank[i] = 0
	m.expansionIO += amount
	m.expansions++
	if m.profiles != nil {
		// i's own subtree is unchanged; everything from i3 to the root
		// sees a new shape.
		m.profiles.Grow()
		m.profiles.Invalidate(i3)
		// i's clean subtree now hangs below the dirty chain: surface it to
		// the residency policy, which cannot discover it from the root-path
		// walk alone.
		m.profiles.NoteCandidate(i)
	}
	return i2, i3, nil
}

// addNode appends a node with the single child c; its list is the one
// entry appended to kids.
func (m *MutableTree) addNode(w int64, orig int, role Role, c int) int {
	id := m.N()
	m.parent = append(m.parent, tree.None)
	m.kids = append(m.kids, c)
	m.first = append(m.first, int32(len(m.kids)))
	m.weight = append(m.weight, w)
	m.orig = append(m.orig, orig)
	m.role = append(m.role, role)
	m.rank = append(m.rank, 0)
	return id
}

// EnableProfiles attaches the memoized Liu profile cache, turning
// SubtreePeak and AppendMinMemSchedule into incremental queries: after an
// Expand, only the profiles on the path from the expansion site to the root
// are recomputed. Enabling is idempotent.
func (m *MutableTree) EnableProfiles() { m.EnableProfilesOpts(liu.CacheOptions{}) }

// EnableProfilesOpts is EnableProfiles with an explicit residency policy
// (memory budget / segment cap; see liu.CacheOptions). The policy never
// changes query results, only the cache's memory/time trade-off. Enabling
// is idempotent; the first call's options win.
func (m *MutableTree) EnableProfilesOpts(opts liu.CacheOptions) {
	if m.profiles == nil {
		m.profiles = liu.NewProfileCacheOpts(m, opts)
	}
}

// ProfileStats returns the residency counters of the attached profile
// cache (zero values if EnableProfiles was never called).
func (m *MutableTree) ProfileStats() liu.CacheStats {
	if m.profiles == nil {
		return liu.CacheStats{}
	}
	return m.profiles.Stats()
}

// CheckProfileInvariants audits the attached profile cache's residency
// accounting, pin counters and dirtiness closure
// (liu.(*ProfileCache).CheckInvariants); it returns nil when no cache is
// attached. The certification harness calls it after every engine run via
// Options.VerifyCache.
func (m *MutableTree) CheckProfileInvariants() error {
	if m.profiles == nil {
		return nil
	}
	return m.profiles.CheckInvariants()
}

// SubtreePeak returns the optimal (OPTMINMEM) peak memory of r's current
// subtree, served from the profile cache. EnableProfiles must have been
// called.
func (m *MutableTree) SubtreePeak(r int) int64 { return m.profiles.Peak(r) }

// WarmProfiles computes every subtree's profile bottom-up with up to
// workers concurrent warmers over disjoint subtree shards (see
// liu.ProfileCache.EnsureParallel); the cached state is identical to a
// sequential warm. EnableProfiles must have been called.
func (m *MutableTree) WarmProfiles(workers int) { m.profiles.EnsureParallel(m.root, workers) }

// InitialPeaks warms the profile cache (sharded across workers) and
// returns every node's current subtree peak. The expansion walk calls it
// before any expansion and gates each recursion node on these INITIAL
// peaks — not on the cheap current-peak check inside the loop — because
// the reference engine consults the global cap only at nodes whose
// initial peak exceeds M; gating on anything else would flip CapHit in
// corner cases and break the bit-identity contract with
// ReferenceRecExpand. (Expansions never increase a subtree's optimal
// peak, so an initially fitting subtree never needs a loop at all.)
// EnableProfiles must have been called.
func (m *MutableTree) InitialPeaks(workers int) []int64 {
	m.WarmProfiles(workers)
	peaks := make([]int64, m.N())
	for i := range peaks {
		peaks[i] = m.profiles.Peak(i)
	}
	return peaks
}

// AppendMinMemSchedule appends an optimal peak-memory traversal of r's
// current subtree — what liu.MinMem would return on an extracted copy,
// expressed in mutable-tree ids — to dst and returns the extended slice.
// It is a thin collector over EmitMinMemSchedule. EnableProfiles must have
// been called.
func (m *MutableTree) AppendMinMemSchedule(r int, dst []int) []int {
	return m.profiles.AppendSchedule(r, dst)
}

// EmitMinMemSchedule streams the optimal traversal of r's current subtree
// to yield segment by segment (mutable-tree ids, reusable chunks) without
// materializing it; see liu.(*ProfileCache).EmitSchedule. EnableProfiles
// must have been called.
func (m *MutableTree) EmitMinMemSchedule(r int, yield func(seg []int) bool) bool {
	return m.profiles.EmitSchedule(r, yield)
}

// SubtreeNodes returns the nodes of r's current subtree, r first.
func (m *MutableTree) SubtreeNodes(r int) []int {
	nodes := []int{r}
	for head := 0; head < len(nodes); head++ {
		nodes = append(nodes, m.Children(nodes[head])...)
	}
	return nodes
}

// Subtree extracts the current subtree rooted at r as an immutable tree
// together with the mapping from new ids to mutable-tree ids. The id remap
// is a dense slice indexed by mutable id, not a hash map: extraction is a
// plain O(n) pass.
func (m *MutableTree) Subtree(r int) (*tree.Tree, []int) {
	nodes := m.SubtreeNodes(r)
	toNew := make([]int, m.N())
	for k, v := range nodes {
		toNew[v] = k
	}
	parent := make([]int, len(nodes))
	weight := make([]int64, len(nodes))
	for k, v := range nodes {
		weight[k] = m.weight[v]
		if v == r {
			parent[k] = tree.None
		} else {
			parent[k] = toNew[m.parent[v]]
		}
	}
	return tree.MustNew(parent, weight), nodes
}

// Freeze extracts the whole current tree, as Subtree(Root()).
func (m *MutableTree) Freeze() (*tree.Tree, []int) {
	return m.Subtree(m.root)
}

// Transpose maps a schedule on an extracted copy of the mutable tree back
// to the original tree: only RolePrimary nodes are kept, renamed to their
// original ids. toMut maps extracted-tree ids to mutable-tree ids, as
// returned by Subtree or Freeze.
func (m *MutableTree) Transpose(sched tree.Schedule, toMut []int) tree.Schedule {
	out := make(tree.Schedule, 0, len(sched))
	for _, v := range sched {
		mv := toMut[v]
		if m.role[mv] == RolePrimary {
			out = append(out, m.orig[mv])
		}
	}
	return out
}
