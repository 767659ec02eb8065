package liu

import (
	"math/rand"
	"sort"
	"testing"
)

// referenceMerge is the pre-arena profile merge, kept verbatim as a frozen
// baseline: all segments stable-sorted by non-increasing hill − valley
// (ties resolved by child order, then per-child segment order). The
// production merge in mergeScratch replaced the sort with a bottom-up
// stable run-merge; since ReferenceRecExpand itself runs on the shared
// merge, this property test is what still pins the original ordering.
func referenceMerge(parts []profile) profile {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	items := make([]segment, 0, total)
	for _, p := range parts {
		items = append(items, p...)
	}
	sort.SliceStable(items, func(a, b int) bool {
		da := items[a].hill - items[a].valley
		db := items[b].hill - items[b].valley
		return da > db
	})
	return items
}

// randomCanonicalPart builds a profile with strictly decreasing
// hill − valley — the invariant canonical profiles guarantee and the
// run-merge relies on — with deliberately many cross-part key collisions
// so the stability tie-breaks are exercised.
func randomCanonicalPart(rng *rand.Rand, tag int) profile {
	n := 1 + rng.Intn(6)
	p := make(profile, 0, n)
	d := int64(20 + rng.Intn(10))
	for i := 0; i < n; i++ {
		v := rng.Int63n(5)
		// A segment's identity is its rope handle (a leaf carrying a debug
		// tag); equal-key segments from different parts stay telling.
		p = append(p, segment{hill: d + v, valley: v, nodes: leafRope(tag*100 + i)})
		d -= 1 + rng.Int63n(4) // strictly decreasing hill − valley
	}
	return p
}

// TestMergeMatchesStableSortReference: the run-merge must reproduce the
// frozen stable-sort merge exactly — same segment values in the same
// order, including the identity (rope handle) of equal-key segments.
func TestMergeMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var ms mergeScratch
	for trial := 0; trial < 500; trial++ {
		parts := make([]profile, 1+rng.Intn(6))
		for i := range parts {
			parts[i] = randomCanonicalPart(rng, i)
		}
		want := referenceMerge(parts)
		got := ms.merge(parts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d segments, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].hill != want[i].hill || got[i].valley != want[i].valley || got[i].nodes != want[i].nodes {
				t.Fatalf("trial %d: segment %d differs: got {%d %d %d}, want {%d %d %d}",
					trial, i,
					got[i].hill, got[i].valley, got[i].nodes,
					want[i].hill, want[i].valley, want[i].nodes)
			}
		}
	}
}
