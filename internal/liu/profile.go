package liu

import (
	"repro/internal/tree"
)

// SegmentInfo is one hill–valley segment of a subtree's optimal memory
// profile, in cumulative coordinates: processing the segment's Nodes (in
// order, starting from retained memory equal to the previous segment's
// Valley) reaches peak Hill and ends with Valley units retained.
type SegmentInfo struct {
	Hill   int64
	Valley int64
	Nodes  []int
}

// MemProfile returns the canonical optimal memory profile of the whole
// tree: the hill/valley decomposition of Liu's optimal traversal. Hills
// strictly decrease, valleys strictly increase, the first hill is the
// optimal peak and the last valley is the root's output size. The profile
// is the natural input for higher-level analyses (e.g. choosing switching
// points when embedding the tree into a larger computation).
func MemProfile(t *tree.Tree) []SegmentInfo {
	prof, a := minMemProfile(t, t.Root())
	out := make([]SegmentInfo, len(prof))
	var r int64
	for i, s := range prof {
		out[i] = SegmentInfo{
			Hill:   r + s.hill,
			Valley: r + s.valley,
			Nodes:  a.appendTo(nil, s.nodes),
		}
		r = out[i].Valley
	}
	return out
}
