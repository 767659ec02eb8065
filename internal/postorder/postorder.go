// Package postorder implements the postorder-constrained algorithms of the
// paper: POSTORDERMINIO, E. Agullo's best postorder traversal for the
// I/O-volume objective (Section 4.1, Algorithm 1), and the homogeneous-tree
// label theory of Section 4.2 (labels l, c, m, w and the lower bound W(T))
// under which the best postorder is optimal (Theorem 4).
package postorder

import (
	"cmp"
	"slices"

	"repro/internal/tree"
)

// Analysis carries the per-node quantities of Section 4.1 for the chosen
// (best) postorder.
type Analysis struct {
	// S[i] is the storage requirement of the subtree rooted at i: the
	// in-core peak of the chosen postorder restricted to that subtree.
	S []int64
	// A[i] = min(M, S[i]): the main-memory footprint of the out-of-core
	// execution of the subtree.
	A []int64
	// V[i] is the I/O volume incurred while executing the subtree rooted
	// at i under the FiF policy with memory bound M.
	V []int64
}

// MinIO computes the best postorder traversal for the I/O volume under
// memory bound M (Algorithm 1 of the paper): the children of every node are
// processed in non-increasing order of A_j − w_j, which minimizes V_root
// among all postorders by Theorem 3. It returns the schedule, the predicted
// I/O volume V_root, and the per-node analysis.
func MinIO(t *tree.Tree, M int64) (tree.Schedule, int64, *Analysis) {
	n := t.N()
	an := &Analysis{
		S: make([]int64, n),
		A: make([]int64, n),
		V: make([]int64, n),
	}
	sched := t.OrderedPostorder(func(v int, children []int) {
		// Non-increasing A_j − w_j (Theorem 3), deterministic ties.
		slices.SortFunc(children, func(a, b int) int {
			if da, db := an.A[a]-t.Weight(a), an.A[b]-t.Weight(b); da != db {
				return cmp.Compare(db, da)
			}
			return cmp.Compare(a, b)
		})
		s := t.Weight(v)
		var ioPeak int64 // max_j (A_j + Σ_{k before j} w_k) − M, clamped at 0
		var before int64 // Σ outputs of already-finished siblings
		var vsum int64   // Σ_j V_j
		for _, c := range children {
			if q := an.S[c] + before; q > s {
				s = q
			}
			if q := an.A[c] + before - M; q > ioPeak {
				ioPeak = q
			}
			vsum += an.V[c]
			before += t.Weight(c)
		}
		an.S[v] = s
		an.A[v] = min(s, M)
		an.V[v] = ioPeak + vsum
	})
	return sched, an.V[t.Root()], an
}
