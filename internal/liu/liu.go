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
	"math"
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
	for _, s := range prof {
		sched = a.appendTo(sched, s.nodes)
	}
	// Cumulative hills strictly decrease: the first is the peak.
	return sched, prof[0].hill
}

// MinMemPeak returns only the optimal peak (Peak_incore in Section 6): the
// first cumulative hill of MinMem's profile, without flattening the
// schedule.
func MinMemPeak(t *tree.Tree) int64 {
	prof, _ := minMemProfile(t, t.Root())
	return prof[0].hill
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
		parts := sc.parts[:0]
		var cs int64
		for _, c := range t.Children(v) {
			parts = append(parts, done[c])
			done[c] = nil
			cs += t.Weight(c)
		}
		canon := sc.mergeCanonical(parts, ownSegment(v, t.Weight(v), cs))
		// The kernel copied the children's segments: their slices go back
		// to the arena for the merges ahead.
		for _, p := range parts {
			sc.arena.freeProfile(p)
		}
		sc.parts = parts[:0]
		if peaks != nil {
			peaks[v] = canon[0].hill
		}
		done[v] = canon
	}
	return done[root], &sc.arena
}

// ownSegment is the segment of executing node v, of weight w, once its
// children's outputs (cs = Σ w_c) are resident: the execution peaks at
// w̄(v) = max(w, cs) and retains w, taken relative to the volume cs
// retained before it (the sum of all child valleys).
func ownSegment(v int, w, cs int64) segment {
	return segment{hill: max(w, cs) - cs, valley: w - cs, nodes: leafRope(v)}
}

// mergeCanonical is the per-node step of Liu's algorithm, shared by the
// transient MinMem pass and the profile cache. It merges the children's
// canonical profiles (parts, in child order) by non-increasing
// hill − valley, which by Liu's theorem (and the paper's Theorem 3 with
// x = hill, y = valley) minimizes the combined peak
// max_k (x_k + Σ_{j<k} y_j); ties go to the earlier child, then to the
// earlier segment of the same child, as in a stable sort. It appends the
// node's own segment and canonicalizes the sequence: consecutive segments
// are merged until cumulative hills strictly decrease and cumulative
// valleys strictly increase, which leaves the memory profile unchanged.
// The result is a fresh profile from the scratch's arena; the
// concatenations come from the arena too.
//
// The merged sequence opens with a run of the lead child's segments, the
// child whose first segment has the largest key: as many of its leading
// segments as come before every other child's first segment. That run is
// a prefix of a canonical profile, so canonicalization would push it
// unchanged; the kernel binary-searches its length, copies it in bulk and
// streams only the rest of the merge, then the node's own segment,
// through the stack, which may pop back into the prefix. The stack sees
// the same segments in the same order as a canonicalization of the whole
// merge, so it makes the same concatenations in the same order and ends
// with the same profile.
func (sc *cacheScratch) mergeCanonical(parts []profile, own segment) profile {
	// Reset on entry: a concatenation that panicked (an injected arena
	// fault) may have left the last call's stack behind.
	k := &sc.canon
	k.lead, k.pp, k.pr, k.r, k.tail = nil, 0, 0, 0, k.tail[:0]
	lead := -1
	var leadKey int64
	for i, p := range parts {
		if len(p) > 0 && (lead < 0 || p[0].hill-p[0].valley > leadKey) {
			lead, leadKey = i, p[0].hill-p[0].valley
		}
	}
	rest := sc.rest[:0]
	if lead >= 0 {
		// A lead segment comes before every other child's first segment
		// when its key exceeds bar: strictly above the first keys of the
		// earlier children, at least the first keys of the later ones.
		bar := int64(math.MinInt64)
		for i, p := range parts {
			if i != lead && len(p) > 0 {
				b := p[0].hill - p[0].valley
				if i > lead {
					b--
				}
				bar = max(bar, b)
			}
		}
		// Keys strictly decrease along a canonical profile, and the first
		// lead segment qualifies by the choice of the lead.
		l := parts[lead]
		lo, hi := 1, len(l)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if l[m].hill-l[m].valley > bar {
				lo = m + 1
			} else {
				hi = m
			}
		}
		k.lead, k.pp = l, lo
		for i, p := range parts {
			if i == lead {
				p = l[lo:]
			}
			if len(p) > 0 {
				rest = append(rest, p)
			}
		}
	}
	// One run streams straight into the stack; more are merged in the
	// scratch buffers first.
	var a profile
	switch len(rest) {
	case 0:
	case 1:
		a = rest[0]
	default:
		a = sc.merge.merge(rest)
	}
	for _, s := range a {
		k.push(s)
	}
	k.push(own)
	out := sc.arena.newProfile(k.pp + len(k.tail))
	out = append(out, k.lead[:k.pp]...)
	prev := k.pr
	for _, c := range k.tail {
		out = append(out, segment{hill: c.hill - prev, valley: c.valley - prev, nodes: c.nodes})
		prev = c.valley
	}
	sc.rest = rest[:0]
	return out
}

// canonStack is mergeCanonical's stack of cumulative segments. Its bottom
// is the prefix lead[:pp], read in place from the lead child's profile;
// tail is the rest. Cumulative values are taken relative to the end of
// the prefix the kernel copied, so the prefix's own cumulative values are
// never summed: pr is the cumulative valley at the end of lead[:pp] (0
// until the stack pops back into the prefix) and r the cumulative valley
// of the input pushed so far.
type canonStack struct {
	lead  profile
	pp    int
	pr, r int64
	tail  []cumSeg
	arena *profileArena
}

// cumSeg is a profile segment in cumulative coordinates.
type cumSeg struct {
	hill, valley int64
	nodes        rope
}

// push appends one merged segment, first merging into it every segment
// on top of the stack that would break the canonical order: a cumulative
// hill not above its own, or a cumulative valley not below its own.
func (k *canonStack) push(s segment) {
	c := cumSeg{hill: k.r + s.hill, valley: k.r + s.valley, nodes: s.nodes}
	k.r = c.valley
	for {
		if n := len(k.tail); n > 0 {
			top := k.tail[n-1]
			if top.hill > c.hill && top.valley < c.valley {
				break
			}
			c.hill = max(c.hill, top.hill)
			c.nodes = k.arena.cat(top.nodes, c.nodes)
			k.tail = k.tail[:n-1]
			continue
		}
		if k.pp == 0 {
			break
		}
		l := k.lead[k.pp-1]
		below := k.pr - l.valley
		if below+l.hill > c.hill && k.pr < c.valley {
			break
		}
		c.hill = max(c.hill, below+l.hill)
		c.nodes = k.arena.cat(l.nodes, c.nodes)
		k.pp--
		k.pr = below
	}
	k.tail = append(k.tail, c)
}

// mergeScratch holds the reusable buffers of mergeCanonical's merge of
// two or more runs. Because hill − valley strictly decreases within a
// canonical profile, every child is already a sorted run, so instead of a
// (allocating, reflect-based) stable sort the merge runs a bottom-up
// stable merge of the runs — O(total·log k) and allocation-free once the
// buffers are warm.
type mergeScratch struct {
	bufA, bufB   profile
	endsA, endsB []int32
}

// ensure grows both segment buffers to capacity n.
func (ms *mergeScratch) ensure(n int) {
	if cap(ms.bufA) < n {
		ms.bufA = make(profile, 0, 2*n)
	}
	if cap(ms.bufB) < n {
		ms.bufB = make(profile, 0, 2*n)
	}
}

// merge interleaves the canonical profiles in parts by non-increasing
// hill − valley, ties to the earlier part. The result aliases one of the
// scratch buffers and is valid until the next call.
func (ms *mergeScratch) merge(parts []profile) profile {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	ms.ensure(total)
	// The first round merges adjacent parts straight from their slices;
	// later rounds merge adjacent runs between the two buffers until one
	// run remains. Ties go to the left (earlier-child) run, reproducing a
	// stable sort.
	src, dst := ms.bufA[:0], ms.bufB[:0]
	ends, newEnds := ms.endsA[:0], ms.endsB[:0]
	for i := 0; i < len(parts); i += 2 {
		if i+1 == len(parts) {
			src = append(src, parts[i]...)
		} else {
			src = mergeRuns(src, parts[i], parts[i+1])
		}
		ends = append(ends, int32(len(src)))
	}
	for len(ends) > 1 {
		dst = dst[:0]
		newEnds = newEnds[:0]
		var start int32
		for i := 0; i < len(ends); i += 2 {
			if i+1 == len(ends) {
				dst = append(dst, src[start:ends[i]]...)
			} else {
				dst = mergeRuns(dst, src[start:ends[i]], src[ends[i]:ends[i+1]])
				start = ends[i+1]
			}
			newEnds = append(newEnds, int32(len(dst)))
		}
		src, dst = dst, src
		ends, newEnds = newEnds, ends
	}
	// Keep the (possibly grown) buffers, whichever roles they ended in.
	ms.bufA, ms.bufB = src[:len(src):cap(src)], dst[:0:cap(dst)]
	ms.endsA, ms.endsB = ends[:0:cap(ends)], newEnds[:0:cap(newEnds)]
	return src
}

// mergeRuns appends to dst the stable merge of the runs a and b by
// non-increasing hill − valley, ties to a.
func mergeRuns(dst, a, b profile) profile {
	for len(a) > 0 && len(b) > 0 {
		if a[0].hill-a[0].valley >= b[0].hill-b[0].valley {
			dst = append(dst, a[0])
			a = a[1:]
		} else {
			dst = append(dst, b[0])
			b = b[1:]
		}
	}
	dst = append(dst, a...)
	return append(dst, b...)
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
