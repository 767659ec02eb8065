package liu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// referenceCanonicalize is the canonicalization that ran over the whole
// merged sequence before mergeCanonical fused the two steps, kept verbatim
// as the kernel's oracle: every segment goes through the cumulative stack,
// the lead child's prefix included.
func referenceCanonicalize(a *profileArena, p profile) profile {
	var st []cumSeg
	var r int64
	for _, s := range p {
		c := cumSeg{hill: r + s.hill, valley: r + s.valley, nodes: s.nodes}
		r = c.valley
		for len(st) > 0 {
			top := st[len(st)-1]
			if top.hill <= c.hill || top.valley >= c.valley {
				if top.hill > c.hill {
					c.hill = top.hill
				}
				c.nodes = a.cat(top.nodes, c.nodes)
				st = st[:len(st)-1]
				continue
			}
			break
		}
		st = append(st, c)
	}
	out := a.newProfile(len(st))
	var prev int64
	for _, c := range st {
		out = append(out, segment{hill: c.hill - prev, valley: c.valley - prev, nodes: c.nodes})
		prev = c.valley
	}
	return out
}

// kernelRun is one merge's output plus the concatenations it made, in
// order, as (left, right) operand pairs.
type kernelRun struct {
	prof profile
	cats []ropeNode
}

func catLog(a *profileArena) []ropeNode {
	chain, _ := a.takeOwned()
	var out []ropeNode
	for r := chain; r != 0; r = a.store.node(r).next {
		n := *a.store.node(r)
		out = append(out, ropeNode{left: n.left, right: n.right})
	}
	return out
}

// runKernel and runReference each start from a fresh store, so equal
// concatenation sequences produce equal slot handles.
func runKernel(parts []profile, own segment) kernelRun {
	sc := newCacheScratch(&ropeStore{}, 0)
	p := sc.mergeCanonical(parts, own)
	return kernelRun{p, catLog(&sc.arena)}
}

func runReference(parts []profile, own segment) kernelRun {
	sc := newCacheScratch(&ropeStore{}, 0)
	merged := append(referenceMerge(parts), own)
	p := referenceCanonicalize(&sc.arena, merged)
	return kernelRun{p, catLog(&sc.arena)}
}

// cumProfile builds a canonical profile from cumulative (hill, valley)
// pairs; segment k's rope is the leaf tag+k.
func cumProfile(tag int, cum ...[2]int64) profile {
	var p profile
	var prev int64
	for k, c := range cum {
		p = append(p, segment{hill: c[0] - prev, valley: c[1] - prev, nodes: leafRope(tag + k)})
		prev = c[1]
	}
	return p
}

// ownOf is the own segment of a node of weight w (leaf tag 999) over
// children whose outputs sum to the parts' final valleys.
func ownOf(parts []profile, w int64) segment {
	var cs int64
	for _, p := range parts {
		for _, s := range p {
			cs += s.valley
		}
	}
	return ownSegment(999, w, cs)
}

// TestMergeCanonicalCases pins the kernel's corners against the
// merge-then-canonicalize oracle: same segments, same rope handles, same
// concatenations in the same order.
func TestMergeCanonicalCases(t *testing.T) {
	// Keys (hill − valley) 9, 5, 1 along a three-segment profile.
	lead := func(tag int) profile { return cumProfile(tag, [2]int64{10, 1}, [2]int64{8, 3}, [2]int64{5, 4}) }
	cases := []struct {
		name  string
		parts []profile
		w     int64
		want  profile // checked when non-nil
	}{
		{
			// The later child's first key (5) ties the lead's second
			// segment: the tie goes to the lead, whose prefix is 9, 5.
			name:  "tie with a later child",
			parts: []profile{lead(0), cumProfile(10, [2]int64{9, 4})},
			w:     3,
		},
		{
			// The same tie with the other child first: it goes to the
			// earlier child, and the prefix is 9 alone.
			name:  "tie with an earlier child",
			parts: []profile{cumProfile(10, [2]int64{9, 4}), lead(0)},
			w:     3,
		},
		{
			// w̄ = 20 tops every hill: the own segment pops the whole
			// copied prefix and the profile collapses to one segment.
			name:  "own segment pops the whole prefix",
			parts: []profile{lead(0)},
			w:     20,
			want:  profile{{hill: 20, valley: 20, nodes: 3}},
		},
		{
			// w = 2 below the child's output: the own segment (cumulative
			// 4, 2) pops the prefix's last two segments only.
			name:  "single child",
			parts: []profile{lead(0)},
			w:     2,
			want:  profile{{hill: 10, valley: 1, nodes: leafRope(0)}, {hill: 7, valley: 1, nodes: 2}},
		},
		{
			name: "more than two children",
			parts: []profile{
				cumProfile(10, [2]int64{6, 1}, [2]int64{4, 2}),
				cumProfile(20, [2]int64{12, 1}, [2]int64{9, 2}, [2]int64{7, 3}, [2]int64{6, 5}),
				cumProfile(30, [2]int64{5, 2}),
				cumProfile(40, [2]int64{8, 0}, [2]int64{3, 1}),
			},
			w: 6,
		},
		{
			name:  "zero weights",
			parts: []profile{cumProfile(10, [2]int64{0, 0}), cumProfile(20, [2]int64{0, 0}), cumProfile(30, [2]int64{0, 0})},
			w:     0,
			want:  profile{{hill: 0, valley: 0, nodes: 3}},
		},
		{
			name:  "zero-weight node over a profile",
			parts: []profile{lead(0), cumProfile(10, [2]int64{0, 0})},
			w:     0,
		},
		{
			name: "leaf",
			w:    7,
			want: profile{{hill: 7, valley: 7, nodes: leafRope(999)}},
		},
	}
	for _, tc := range cases {
		own := ownOf(tc.parts, tc.w)
		got, want := runKernel(tc.parts, own), runReference(tc.parts, own)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kernel %+v, reference %+v", tc.name, got, want)
		}
		if tc.want != nil && !reflect.DeepEqual(got.prof, tc.want) {
			t.Errorf("%s: profile %+v, want %+v", tc.name, got.prof, tc.want)
		}
	}
}

// randomCanonical draws a canonical profile (cumulative hills strictly
// decreasing, valleys strictly increasing, hill ≥ valley) from small
// ranges, so keys collide across children and prefixes of every length
// occur.
func randomCanonical(rng *rand.Rand, tag int) profile {
	n := 1 + rng.Intn(10)
	cum := make([][2]int64, n)
	v := rng.Int63n(3)
	for k := range cum {
		if k > 0 {
			v += 1 + rng.Int63n(2)
		}
		cum[k][1] = v
	}
	h := cum[n-1][1] + rng.Int63n(3)
	for k := n - 1; k >= 0; k-- {
		cum[k][0] = h
		h += 1 + rng.Int63n(3)
	}
	return cumProfile(tag, cum...)
}

// TestMergeCanonicalMatchesReference runs the kernel and the oracle on
// random children (one to six) and random node weights.
func TestMergeCanonicalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 3000; trial++ {
		parts := make([]profile, rng.Intn(7))
		var cs int64
		for i := range parts {
			parts[i] = randomCanonical(rng, 100*(i+1))
			for _, s := range parts[i] {
				cs += s.valley
			}
		}
		own := ownOf(parts, rng.Int63n(cs+8))
		got, want := runKernel(parts, own), runReference(parts, own)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: parts %s own %+v:\nkernel    %+v\nreference %+v",
				trial, fmt.Sprint(parts), own, got, want)
		}
	}
}
