package postorder

import (
	"fmt"
	"sort"

	"repro/internal/tree"
)

// HomLabels holds the Section 4.2 labels of a homogeneous tree (every
// output has size 1) for a memory bound M.
type HomLabels struct {
	// L[v] is the minimum memory (in unit slots) needed to execute the
	// subtree rooted at v without any I/O; leaves have L = 1 and internal
	// nodes L = max_i (L(v_i) + i − 1) over children sorted by
	// non-increasing L (the Sethi–Ullman number of the in-tree).
	L []int64
	// C[v] is the I/O indicator: 1 if POSTORDER writes one unit of v to
	// disk while executing a later sibling subtree, else 0. The root has
	// C = 0.
	C []int64
	// W[v] = Σ_{children v_i} C[v_i], the number of children of v that
	// POSTORDER stores.
	W []int64
	// Sorted[v] lists v's children in the POSTORDER processing order
	// (non-increasing L, ties by index).
	Sorted [][]int
}

// WT returns W(T(v)) = C[v] + Σ_{μ in subtree of v} W[μ], the I/O volume
// of POSTORDER on the subtree of v (Lemma 3) and the lower bound on any
// schedule (Lemma 5).
func (h *HomLabels) WT(t *tree.Tree, v int) int64 {
	var sum int64
	for _, u := range t.SubtreeNodes(v) {
		sum += h.W[u]
	}
	return h.C[v] + sum
}

// ComputeHomLabels computes the labels for homogeneous tree t and memory
// bound M. It errors if the tree is not homogeneous.
func ComputeHomLabels(t *tree.Tree, M int64) (*HomLabels, error) {
	n := t.N()
	for i := 0; i < n; i++ {
		if t.Weight(i) != 1 {
			return nil, fmt.Errorf("postorder: node %d has weight %d; homogeneous labels need unit weights", i, t.Weight(i))
		}
	}
	h := &HomLabels{
		L:      make([]int64, n),
		C:      make([]int64, n),
		W:      make([]int64, n),
		Sorted: make([][]int, n),
	}
	for _, v := range t.BottomUp() {
		if t.IsLeaf(v) {
			h.L[v] = 1
			continue
		}
		cs := append([]int(nil), t.Children(v)...)
		sort.SliceStable(cs, func(a, b int) bool {
			if h.L[cs[a]] != h.L[cs[b]] {
				return h.L[cs[a]] > h.L[cs[b]]
			}
			return cs[a] < cs[b]
		})
		h.Sorted[v] = cs
		var l int64
		for i, c := range cs {
			if q := h.L[c] + int64(i); q > l {
				l = q
			}
		}
		h.L[v] = l
		// I/O indicators: c(v_1) = 0; c(v_i) = 0 iff
		// l(v_i) + Σ_{j<i}(1 − c(v_j)) ≤ M.
		var inMem int64 // m(v_i) = Σ_{j<i} (1 − c(v_j))
		for i, c := range cs {
			if i == 0 {
				h.C[c] = 0
			} else if h.L[c]+inMem <= M {
				h.C[c] = 0
			} else {
				h.C[c] = 1
			}
			inMem += 1 - h.C[c]
			h.W[v] += h.C[c]
		}
	}
	h.C[t.Root()] = 0
	return h, nil
}

// HomPostorder returns the POSTORDER schedule of Section 4.2: the postorder
// that processes children by non-increasing L labels. Its FiF I/O volume is
// at most W(T) (Lemma 3), which is optimal (Lemma 5, Theorem 4).
func HomPostorder(t *tree.Tree, h *HomLabels) tree.Schedule {
	return t.OrderedPostorder(func(v int, cs []int) {
		if sorted := h.Sorted[v]; sorted != nil {
			copy(cs, sorted)
		}
	})
}
