package liu

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/randtree"
)

// TestProfileCacheRecomputeZeroAlloc guards the pooled merge path: on a
// warm cache, an Invalidate followed by the recomputation of the dirty
// root path must perform zero heap allocations — the profile slices and
// rope nodes freed by Invalidate are exactly what the recompute needs, and
// all transient state lives in the scratch (the mirror of
// TestSimulatorZeroAllocWarm for the profile side of the inner loop).
func TestProfileCacheRecomputeZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr := cacheRandomTree(2000, rng)
	c := NewProfileCache(tr)
	c.Peak(tr.Root())
	// Pick a deep node so the recomputed path is substantial.
	deepest, depth := tr.Root(), -1
	for v := 0; v < tr.N(); v++ {
		d := 0
		for p := v; p != tr.Root(); p = tr.Parent(p) {
			d++
		}
		if d > depth {
			deepest, depth = v, d
		}
	}
	cycle := func() {
		c.Invalidate(deepest)
		c.Peak(tr.Root())
	}
	cycle() // warm the scratch and free lists
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm invalidate+recompute allocates %.1f times per run, want 0", allocs)
	}
}

// TestArenaFreeOnInvalidate pins the recycling discipline that bounds
// arena memory by the live profile set: Invalidate returns the path's rope
// slots to the free list, and the following recomputation drains it again
// instead of allocating fresh slots.
func TestArenaFreeOnInvalidate(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	tr := cacheRandomTree(300, rng)
	c := NewProfileCache(tr)
	c.Peak(tr.Root())
	if n := countFreeRopes(&c.sc.arena); n != 0 {
		t.Fatalf("after a cold warm the free list holds %d ropes, want 0", n)
	}
	leaf := tr.Leaves()[0]
	c.Invalidate(leaf)
	freed := countFreeRopes(&c.sc.arena)
	if freed == 0 {
		t.Fatal("Invalidate freed no rope slots")
	}
	c.Peak(tr.Root())
	if n := countFreeRopes(&c.sc.arena); n >= freed {
		t.Fatalf("recompute left %d of %d freed ropes unused", n, freed)
	}
	// Steady state: repeated cycles never grow the pooled population.
	for i := 0; i < 50; i++ {
		c.Invalidate(leaf)
		c.Peak(tr.Root())
	}
	if n := countFreeRopes(&c.sc.arena); n >= freed {
		t.Fatalf("free list grew to %d ropes across cycles (one cycle frees %d)", n, freed)
	}
}

func countFreeRopes(a *profileArena) int {
	n := 0
	for r := a.free; r != 0; r = a.store.node(r).next {
		n++
	}
	return n
}

// TestEnsureParallelMatchesSequential: a sharded warm must leave the cache
// in exactly the state a sequential warm produces — same peaks everywhere
// and the same root schedule.
func TestEnsureParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		tr := cacheRandomTree(2+rng.Intn(800), rng)
		seq := NewProfileCache(tr)
		seq.Peak(tr.Root())
		for _, workers := range []int{2, 4, 8} {
			par := NewProfileCache(tr)
			par.EnsureParallel(tr.Root(), workers)
			for v := 0; v < tr.N(); v++ {
				if !par.valid[v] {
					t.Fatalf("trial %d workers=%d: node %d left dirty by EnsureParallel", trial, workers, v)
				}
				if par.peak[v] != seq.peak[v] {
					t.Fatalf("trial %d workers=%d: node %d peak %d vs sequential %d",
						trial, workers, v, par.peak[v], seq.peak[v])
				}
			}
			got := par.AppendSchedule(tr.Root(), nil)
			want := seq.AppendSchedule(tr.Root(), nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d workers=%d: schedules differ at %d", trial, workers, i)
				}
			}
		}
	}
}

// TestMinMemAllocsSublinear pins the transient pass's recycling: the merge
// copies every child profile, so their slices return to the arena and the
// merges ahead reuse them, and no node allocates a leaf rope.
// MinMem and AllSubtreePeaks must make far fewer allocations than there are
// nodes.
func TestMinMemAllocsSublinear(t *testing.T) {
	for _, n := range []int{3000, 30000} {
		tr := randtree.Synth(n, rand.New(rand.NewSource(int64(n))))
		limit := float64(n / 16)
		if a := testing.AllocsPerRun(3, func() { MinMem(tr) }); a >= limit {
			t.Errorf("n=%d: MinMem makes %.0f allocations, want < %.0f", n, a, limit)
		}
		if a := testing.AllocsPerRun(3, func() { AllSubtreePeaks(tr) }); a >= limit {
			t.Errorf("n=%d: AllSubtreePeaks makes %.0f allocations, want < %.0f", n, a, limit)
		}
	}
}

// TestMinMemPeakSkipsFlatten pins that MinMemPeak reads the peak off the
// profile instead of flattening the schedule: on SYNTH 3000 it must
// allocate at least the n-word schedule (8·n bytes) less than MinMem.
func TestMinMemPeakSkipsFlatten(t *testing.T) {
	const n = 3000
	tr := randtree.Synth(n, rand.New(rand.NewSource(n)))
	if _, peak := MinMem(tr); MinMemPeak(tr) != peak {
		t.Fatalf("MinMemPeak %d, MinMem's peak %d", MinMemPeak(tr), peak)
	}
	bytes := func(f func()) int64 {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f()
			}
		}).AllocedBytesPerOp()
	}
	full := bytes(func() { MinMem(tr) })
	peakOnly := bytes(func() { MinMemPeak(tr) })
	if full-peakOnly < 8*n {
		t.Fatalf("MinMemPeak allocates %d B, MinMem %d B: want at least %d B less", peakOnly, full, 8*n)
	}
}

// unlistedSlots counts the store slots that are on no list: neither an
// ownership chain, the primary arena's pending chain, its free list, nor
// the unused rest of its page. After CheckInvariants has passed (no slot
// on two lists), zero means every slot the store ever handed out is
// accounted for.
func unlistedSlots(c *ProfileCache) int {
	a := &c.sc.arena
	if a.store.slots() == 0 {
		return 0
	}
	listed := int(a.allocs) + countFreeRopes(a) + int(a.end-a.bump)
	for _, n := range c.ownedCount {
		listed += int(n)
	}
	return a.store.slots() - 1 - listed // slot 0 is never handed out
}

// TestRopeStoreShardedWarm audits the rope store around every path that
// moves slots between arenas and lists: a sharded warm with 2, 4 and 8
// workers (whose free slots and unused page tails the primary arena
// absorbs at the join), invalidate/recompute cycles with subtree
// eviction and sliceless rebuilds, and a root emission. After each,
// CheckInvariants must pass and no slot may be lost.
func TestRopeStoreShardedWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	audit := func(c *ProfileCache, label string) {
		t.Helper()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if n := unlistedSlots(c); n != 0 {
			t.Fatalf("%s: %d rope slots on no list", label, n)
		}
	}
	for trial := 0; trial < 6; trial++ {
		tr := randtree.Synth(2000+rng.Intn(3000), rng)
		want := NewProfileCache(tr).AppendSchedule(tr.Root(), nil)
		for _, workers := range []int{2, 4, 8} {
			for _, budget := range []int64{0, 1, 1 << 14} {
				label := fmt.Sprintf("trial %d w=%d budget=%d", trial, workers, budget)
				m := newWeightedMutable(tr)
				c := NewProfileCacheOpts(m, CacheOptions{MaxResidentBytes: budget})
				c.EnsureParallel(m.root, workers)
				audit(c, label+" after the sharded warm")
				for e := 0; e < 20; e++ {
					v := rng.Intn(m.N())
					c.Invalidate(v)
					if e%2 == 0 {
						c.EnsureParallel(m.root, workers)
					} else {
						c.Peak(m.root)
					}
					// Interior queries rebuild sliceless nodes under
					// resident ancestors.
					c.AppendSchedule(rng.Intn(m.N()), nil)
				}
				audit(c, label+" after invalidate/recompute cycles")
				if got := collect(c, m.root); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: emission diverges", label)
				}
				audit(c, label+" after an emission")
			}
		}
	}
}

// hugeTree reports more nodes than a rope handle can name.
type hugeTree struct{ TreeLike }

var hugeN = int64(math.MaxInt32) + 1

func (hugeTree) N() int { return int(hugeN) }

// TestGrowPanicsPastInt32 checks that a tree too large for rope handles
// fails loudly at Grow instead of wrapping a node id into a wrong handle.
func TestGrowPanicsPastInt32(t *testing.T) {
	if int64(int(hugeN)) != hugeN {
		t.Skip("int is 32 bits: no tree can outgrow the handles")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Grow accepted a tree of more than MaxInt32 nodes")
		}
	}()
	NewProfileCache(hugeTree{})
}
