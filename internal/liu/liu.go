// Package liu implements J.W.H. Liu's two classical algorithms for
// peak-memory tree scheduling, which the paper uses as substrates:
//
//   - MinMem (the paper's OPTMINMEM): the optimal, postorder-free traversal
//     minimizing peak memory, via generalized tree pebbling ("An application
//     of generalized tree pebbling to sparse matrix factorization", SIAM J.
//     Alg. Discrete Methods 8(3), 1987).
//   - PostOrderMinMem: the best postorder traversal for peak memory ("On the
//     storage requirement in the out-of-core multifrontal method for sparse
//     factorization", ACM TOMS, 1986).
//
// Both operate on the in-place task model of package tree, where executing
// node i needs w̄(i) = max(w_i, Σ_child w_j) and afterwards retains w_i.
//
// MinMem represents the traversal of each subtree by its hill–valley
// profile: a sequence of segments (H_1,V_1),...,(H_s,V_s) with strictly
// decreasing hills H and strictly increasing valleys V, where H_k is the
// peak reached during segment k and V_k the memory retained after it
// (measured from an empty memory at the subtree's start). Liu's theorem
// states that an optimal traversal of a node is obtained by merging the
// segments of the children's optimal traversals in non-increasing order of
// H − V (the exchange argument is the paper's Theorem 3) and appending the
// node's own execution; the per-child segment order is automatically
// preserved because H − V strictly decreases along a canonical profile.
package liu

import (
	"cmp"
	"slices"

	"repro/internal/tree"
)

// segment is one hill–valley segment of a traversal profile. hill and
// valley are incremental with respect to the previous valley of the same
// profile: if the profile's retained memory before the segment is r, the
// segment reaches peak r+hill and ends with retained memory r+valley.
// nodes lists the tasks executed during the segment, in order.
type segment struct {
	hill   int64
	valley int64
	nodes  rope
}

// profile is a canonical traversal profile: incremental segments whose
// cumulative hills strictly decrease and cumulative valleys strictly
// increase.
type profile []segment

// MinMem computes an optimal peak-memory traversal of t. It returns the
// schedule and its peak memory (the minimum over all topological
// traversals of the maximum memory in use).
func MinMem(t *tree.Tree) (tree.Schedule, int64) {
	prof, a := minMemProfile(t, t.Root())
	sched := make(tree.Schedule, 0, t.N())
	var peak, r int64
	for _, s := range prof {
		if h := r + s.hill; h > peak {
			peak = h
		}
		r += s.valley
		sched = a.appendTo(sched, s.nodes)
	}
	return sched, peak
}

// MinMemPeak returns only the optimal peak (Peak_incore in Section 6).
func MinMemPeak(t *tree.Tree) int64 {
	_, p := MinMem(t)
	return p
}

// AllSubtreePeaks returns, for every node v, the optimal peak memory of
// the subtree rooted at v, in one bottom-up pass (the peak of a canonical
// profile is its first cumulative hill, recorded before the profile is
// consumed by the parent's merge).
func AllSubtreePeaks(t *tree.Tree) []int64 {
	peaks := make([]int64, t.N())
	minMemProfileWithPeaks(t, t.Root(), peaks)
	return peaks
}

// minMemProfile computes the canonical optimal profile of the subtree
// rooted at v, along with the arena whose store backs its ropes. It works
// on an explicit stack to survive elimination-tree depths far beyond the
// goroutine recursion limit.
func minMemProfile(t *tree.Tree, root int) (profile, *profileArena) {
	return minMemProfileWithPeaks(t, root, nil)
}

// minMemProfileWithPeaks additionally records every finished subtree's
// optimal peak into peaks when non-nil.
func minMemProfileWithPeaks(t *tree.Tree, root int, peaks []int64) (profile, *profileArena) {
	// done[v] holds the finished profile of v's subtree until v's parent
	// consumes it. The scratch (and its arena and rope store) is
	// transient: nothing is ever invalidated here, so the arena only
	// recycles the children's slices the merges have copied, and is
	// dropped with the pass.
	done := make([]profile, t.N())
	sc := newCacheScratch(&ropeStore{}, 0)
	type frame struct {
		node    int
		visited bool
	}
	stack := []frame{{root, false}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		if !f.visited {
			stack[len(stack)-1].visited = true
			for _, c := range t.Children(f.node) {
				stack = append(stack, frame{c, false})
			}
			continue
		}
		stack = stack[:len(stack)-1]
		v := f.node
		children := t.Children(v)
		var merged profile
		if len(children) > 0 {
			parts := sc.parts[:0]
			for _, c := range children {
				parts = append(parts, done[c])
				done[c] = nil
			}
			merged = sc.merge.merge(parts)
			// The merge copied the children's segments: their slices
			// go back to the arena for the canonicalizations ahead.
			for _, p := range parts {
				sc.arena.freeProfile(p)
			}
			sc.parts = parts[:0]
		} else {
			sc.merge.ensure(1)
			merged = sc.merge.bufA[:0]
		}
		// Executing v itself: all children outputs (Σ w_c) are
		// resident; the execution peaks at w̄(v) and retains w_v.
		// In incremental terms relative to the pre-segment retained
		// volume Σ w_c (the sum of all child valleys):
		cs := t.ChildrenSum(v)
		merged = append(merged, segment{
			hill:   t.WBar(v) - cs,
			valley: t.Weight(v) - cs,
			nodes:  leafRope(v),
		})
		canon := sc.canonicalize(merged)
		if peaks != nil {
			var r, peak int64
			for _, s := range canon {
				if h := r + s.hill; h > peak {
					peak = h
				}
				r += s.valley
			}
			peaks[v] = peak
		}
		done[v] = canon
	}
	return done[root], &sc.arena
}

// mergeScratch holds the reusable buffers of the profile merge. The merge
// interleaves the children's canonical profiles optimally: all segments
// ordered by non-increasing (hill − valley), which by Liu's theorem (and
// the paper's Theorem 3 with x = hill, y = valley) minimizes the combined
// peak max_k (x_k + Σ_{j<k} y_j). Ties are broken by child order, then by
// per-child segment order. Because hill − valley strictly decreases within
// a canonical profile, every child is already a sorted run, so instead of
// a (allocating, reflect-based) stable sort the merge runs a bottom-up
// stable merge of the runs — O(total·log k) and allocation-free once the
// buffers are warm.
type mergeScratch struct {
	bufA, bufB   profile
	endsA, endsB []int32
}

// ensure grows both segment buffers to capacity n so that the caller can
// append one further segment to the merge result without reallocating.
func (ms *mergeScratch) ensure(n int) {
	if cap(ms.bufA) < n {
		ms.bufA = make(profile, 0, 2*n)
	}
	if cap(ms.bufB) < n {
		ms.bufB = make(profile, 0, 2*n)
	}
}

// merge interleaves the canonical profiles in parts. The result aliases one
// of the scratch buffers (capacity at least total+1, so the caller may
// append the node's own segment in place) and is valid until the next call.
func (ms *mergeScratch) merge(parts []profile) profile {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	ms.ensure(total + 1)
	if len(parts) == 1 {
		return append(ms.bufA[:0], parts[0]...)
	}
	// Lay the runs out contiguously in child order.
	src, dst := ms.bufA[:0], ms.bufB[:0]
	ends, newEnds := ms.endsA[:0], ms.endsB[:0]
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		src = append(src, p...)
		ends = append(ends, int32(len(src)))
	}
	// Merge adjacent run pairs until one run remains; on equal keys the
	// left (earlier-child) run wins, reproducing a stable sort.
	for len(ends) > 1 {
		dst = dst[:0]
		newEnds = newEnds[:0]
		var start int32
		for i := 0; i < len(ends); i += 2 {
			if i+1 == len(ends) {
				dst = append(dst, src[start:ends[i]]...)
				newEnds = append(newEnds, int32(len(dst)))
				break
			}
			l, lEnd := start, ends[i]
			r, rEnd := ends[i], ends[i+1]
			for l < lEnd && r < rEnd {
				if src[l].hill-src[l].valley >= src[r].hill-src[r].valley {
					dst = append(dst, src[l])
					l++
				} else {
					dst = append(dst, src[r])
					r++
				}
			}
			dst = append(dst, src[l:lEnd]...)
			dst = append(dst, src[r:rEnd]...)
			newEnds = append(newEnds, int32(len(dst)))
			start = ends[i+1]
		}
		src, dst = dst, src
		ends, newEnds = newEnds, ends
	}
	// Keep the (possibly grown) buffers, whichever roles they ended in.
	ms.bufA, ms.bufB = src[:len(src):cap(src)], dst[:0:cap(dst)]
	ms.endsA, ms.endsB = ends[:0:cap(ends)], newEnds[:0:cap(newEnds)]
	return src
}

// PostOrderMinMem computes Liu's best postorder traversal for peak memory:
// children are visited in non-increasing order of (subtree peak − output
// size), per Theorem 3. It returns the postorder schedule and its peak.
func PostOrderMinMem(t *tree.Tree) (tree.Schedule, int64) {
	peak := make([]int64, t.N()) // postorder peak of each subtree
	sched := t.OrderedPostorder(func(v int, children []int) {
		slices.SortFunc(children, func(a, b int) int {
			if da, db := peak[a]-t.Weight(a), peak[b]-t.Weight(b); da != db {
				return cmp.Compare(db, da)
			}
			return cmp.Compare(a, b)
		})
		var before int64 // Σ outputs of already-finished siblings
		p := t.WBar(v)
		for _, c := range children {
			if q := peak[c] + before; q > p {
				p = q
			}
			before += t.Weight(c)
		}
		peak[v] = p
	})
	return sched, peak[t.Root()]
}
