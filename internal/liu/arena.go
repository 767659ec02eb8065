package liu

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// rope is a handle to an immutable sequence of node ids with O(1)
// concatenation; canonicalization merges segments constantly on chain-like
// trees, and copying id slices there would cost Θ(n²) overall. A handle
// holds no pointer, so neither the profiles that hold ropes nor the store
// behind them is ever scanned by the garbage collector:
//
//   - 0 is the empty rope;
//   - a negative handle ^v = −(v+1) is the single id v, carried in the
//     handle itself, so a node's own leaf allocates nothing;
//   - a positive handle is a slot of the cache's ropeStore holding a
//     concatenation node.
type rope int32

// leafRope returns the single-id rope of node v.
func leafRope(v int) rope { return ^rope(v) }

// ropeNode is one concatenation node: left's ids, then right's. next
// chains the slot into its owner's ownership list while it is live and
// into an arena's free list once it is freed.
type ropeNode struct{ left, right, next rope }

const (
	ropePageBits = 12
	ropePageSize = 1 << ropePageBits
	// maxRopePages keeps every slot handle, and the bump end of the last
	// page, inside int32.
	maxRopePages = 1<<(31-ropePageBits) - 1
)

type ropePage [ropePageSize]ropeNode

// ropeStore holds the concatenation nodes of one cache (or of one transient
// MinMem pass) in fixed pages that never move. Arenas take whole pages
// under mu and bump-allocate inside them; the page directory is published
// through an atomic pointer, so the sharded warm's workers, each filling
// its own pages, resolve any handle without locking. Slot 0 of page 0 is
// never handed out: handle 0 is the empty rope.
type ropeStore struct {
	mu  sync.Mutex
	dir atomic.Pointer[[]*ropePage]
}

// node resolves a positive handle.
func (s *ropeStore) node(r rope) *ropeNode {
	d := *s.dir.Load()
	return &d[uint32(r)>>ropePageBits][uint32(r)&(ropePageSize-1)]
}

// slots returns the number of slots in the store's pages, slot 0 included.
func (s *ropeStore) slots() int {
	if d := s.dir.Load(); d != nil {
		return len(*d) * ropePageSize
	}
	return 0
}

// newPage appends a page and returns the handle range [first, end) it
// covers.
func (s *ropeStore) newPage() (first, end rope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var d []*ropePage
	if p := s.dir.Load(); p != nil {
		d = *p
	}
	if len(d) >= maxRopePages {
		panic("liu: rope store exhausted (2^31 concatenation nodes)")
	}
	base := rope(len(d) << ropePageBits)
	// Readers holding the old directory never index past its length, so
	// appending in place is safe; the new length is published atomically.
	d = append(d, new(ropePage))
	s.dir.Store(&d)
	first, end = base, base+ropePageSize
	if first == 0 {
		first = 1
	}
	return first, end
}

// profileArena recycles the two kinds of objects a ProfileCache recompute
// allocates — profile segment slices and rope slots — so that steady-state
// recomputation after an Invalidate performs no heap allocations at all
// (the merge kernel's scratch lives in cacheScratch; the arena owns the
// objects that survive the recompute inside c.prof).
//
// Free-on-invalidate is what bounds the arena: Invalidate (and, under
// CacheOptions, eviction) returns a node's profile slice and its owned rope
// slots to the free lists, so the arena's footprint is proportional to the
// live profile set, not to the total number of recomputations. Ownership is
// tracked per node: every rope slot allocated while recomputing v is
// chained (through next, in allocation order) into a list the cache stores
// as owned[v]. Freeing the chain is safe exactly because of the
// dirty-up-closure and resident-down-closure invariants: a rope owned by v
// is referenced only by v's profile and by profiles of v's ancestors, and
// both Invalidate and eviction only ever free nodes whose ancestors hold no
// resident profile.
//
// When a residency budget is active, the segment-slice free lists are
// capped (poolCap): slices freed beyond the cap are dropped for the garbage
// collector instead of pooled, so pooled + resident memory stays within
// twice the budget rather than ratcheting up to the largest transient
// footprint ever reached. Rope slots live in the store's pages, which the
// collector cannot reclaim one slot at a time, so a freed slot always goes
// back on the free list.
//
// An arena is single-goroutine state. The sharded warm (EnsureParallel)
// gives every worker a private cacheScratch — and hence a private arena —
// over the cache's shared store; a worker allocates from its own pages and
// frees only slots of its own shard, and at the join the primary arena
// absorbs the worker's free slots. Since a slot is just an index, any
// arena can free any slot.
type profileArena struct {
	store     *ropeStore
	free      rope // free list, chained through next
	bump, end rope // unused slots [bump, end) of the arena's current page
	// owned and ownedTail delimit the chain of slots allocated since the
	// last takeOwned, in allocation order; allocs is its length.
	owned, ownedTail rope
	allocs           int32
	// replaying is set while a clean-but-sliceless node is rebuilt: its
	// canonicalization repeats, concatenation for concatenation, the one
	// that built its ownership chain, so cat hands the chain's slots back
	// in order (cursor) instead of allocating.
	replaying bool
	cursor    rope
	// freeSegs[k] holds released profile slices of capacity exactly 1<<k.
	freeSegs [33][]profile
	// pooled is the byte footprint of the segment free lists; poolCap (0 =
	// unlimited) is the point beyond which freed slices are dropped rather
	// than pooled.
	pooled  int64
	poolCap int64
	walk    []rope // flatten scratch of appendTo
}

// cat concatenates two ropes, taking the internal node (if any) from the
// arena. The faultinject.ArenaAlloc point models an allocation failure by
// panicking with faultinject.ErrArenaAlloc; the cache arrays are untouched
// mid-recompute (recompute publishes only at its end), so the containment
// layer above (expand.Engine) sees a cache whose invariants still hold.
func (a *profileArena) cat(x, y rope) rope {
	if x == 0 {
		return y
	}
	if y == 0 {
		return x
	}
	if a.replaying {
		r := a.cursor
		if r == 0 {
			panic("liu: sliceless rebuild made more concatenations than its chain holds")
		}
		n := a.store.node(r)
		if n.left != x || n.right != y {
			panic("liu: sliceless rebuild diverged from its ownership chain")
		}
		a.cursor = n.next
		return r
	}
	if faultinject.Fire(faultinject.ArenaAlloc) {
		panic(faultinject.ErrArenaAlloc)
	}
	r := a.free
	if r != 0 {
		a.free = a.store.node(r).next
	} else {
		if a.bump == a.end {
			a.bump, a.end = a.store.newPage()
		}
		r = a.bump
		a.bump++
	}
	*a.store.node(r) = ropeNode{left: x, right: y}
	if a.owned == 0 {
		a.owned = r
	} else {
		a.store.node(a.ownedTail).next = r
	}
	a.ownedTail = r
	a.allocs++
	return r
}

// takeOwned detaches and returns the chain of slots allocated since the
// previous call, along with its length; the caller stores the chain as the
// ownership record of the node just recomputed and the length for byte
// accounting.
func (a *profileArena) takeOwned() (rope, int32) {
	r, n := a.owned, a.allocs
	a.owned, a.ownedTail, a.allocs = 0, 0, 0
	return r, n
}

// freeOwned returns a whole chain (an ownership record or another arena's
// free list) to the free list.
func (a *profileArena) freeOwned(chain rope) {
	if chain == 0 {
		return
	}
	tail := a.store.node(chain)
	for tail.next != 0 {
		tail = a.store.node(tail.next)
	}
	tail.next = a.free
	a.free = chain
}

// absorb takes over the rope slots of a worker arena that is being
// retired at the sharded warm's join: its free list, the unused rest of
// its page, and any chain a panicking recompute left unpublished (nothing
// references it). The worker's pooled segment slices are left to the
// garbage collector.
func (a *profileArena) absorb(w *profileArena) {
	a.freeOwned(w.free)
	a.freeOwned(w.owned)
	for r := w.bump; r < w.end; r++ {
		a.store.node(r).next = a.free
		a.free = r
	}
}

// appendTo flattens r into dst (iteratively: ropes from long chains are
// deep).
func (a *profileArena) appendTo(dst []int, r rope) []int {
	st := append(a.walk[:0], r)
	for len(st) > 0 {
		r := st[len(st)-1]
		st = st[:len(st)-1]
		for r > 0 {
			n := a.store.node(r)
			st = append(st, n.right)
			r = n.left
		}
		if r < 0 {
			dst = append(dst, int(^r))
		}
	}
	a.walk = st[:0]
	return dst
}

// segClass returns the bucket index of a capacity: the smallest k with
// 1<<k >= n.
func segClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// newProfile returns an empty profile with capacity at least n, reusing a
// released slice when one of the right class is available.
func (a *profileArena) newProfile(n int) profile {
	k := segClass(n)
	if l := a.freeSegs[k]; len(l) > 0 {
		p := l[len(l)-1]
		a.freeSegs[k] = l[:len(l)-1]
		a.pooled -= int64(cap(p)) * segmentBytes
		return p
	}
	return make(profile, 0, 1<<k)
}

// freeProfile releases a profile slice back to its capacity bucket; slices
// beyond poolCap are left to the garbage collector. Segments hold no
// pointers, so nothing needs clearing.
func (a *profileArena) freeProfile(p profile) {
	if cap(p) == 0 {
		return
	}
	k := segClass(cap(p))
	if 1<<k != cap(p) {
		return // not arena-allocated; let the GC reclaim it
	}
	if a.poolCap > 0 && a.pooled+int64(cap(p))*segmentBytes > a.poolCap {
		return
	}
	a.pooled += int64(cap(p)) * segmentBytes
	a.freeSegs[k] = append(a.freeSegs[k], p[:0])
}
