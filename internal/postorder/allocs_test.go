package postorder

import (
	"math/rand"
	"testing"

	"repro/internal/randtree"
)

// maxAllocs bounds the allocations of one MinIO call whatever the tree's
// size: children are sorted inside one flat copy of the child lists and
// the schedule is laid out in one n-sized slice.
const maxAllocs = 12

func TestMinIOAllocsIndependentOfN(t *testing.T) {
	for _, n := range []int{3000, 30000} {
		tr := randtree.Synth(n, rand.New(rand.NewSource(1)))
		M := tr.MaxWBar()
		if a := testing.AllocsPerRun(5, func() { MinIO(tr, M) }); a > maxAllocs {
			t.Errorf("MinIO at n=%d: %.0f allocations, want at most %d", n, a, maxAllocs)
		}
	}
}
