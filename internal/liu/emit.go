package liu

// Streaming schedule emission: walking the rope structure of a cached
// profile and handing the traversal to the consumer segment by segment,
// instead of flattening it into one n-word slice. Two variants share the
// machinery:
//
//   - EmitSchedule / ScheduleIter stream without touching residency: the
//     cache state after the emission is exactly the state AppendSchedule
//     leaves behind (AppendSchedule itself is a thin collector over the
//     stream).
//   - EmitScheduleRelease / ScheduleIterRelease additionally return every
//     rope slot to the arena the moment the walk has consumed it, and drop
//     the subtree's profile slices up front, leaving the whole subtree in
//     the clean-but-evicted state of DESIGN.md §2.6 (peaks stay served;
//     profiles rematerialize on demand). This is the final-emission mode:
//     it removes the Θ(n) rope floor of AppendSchedule, because rope
//     memory shrinks as the traversal streams out instead of being pinned
//     until one flattened slice has been built.
//
// Releasing is sound only at the same moment subtree eviction is sound: no
// profile outside v's subtree may reference the subtree's rope slots. That
// is guaranteed exactly when every ancestor of v is dirty (then their
// slices and rope chains were freed by the Invalidate that dirtied them) —
// trivially true at the root — and when no Pin is outstanding anywhere in
// the cache (a pinned node means another reader, such as an open
// iterator, may still be walking the ropes). When either condition fails,
// the releasing entry points degrade to the non-consuming walk, so callers
// never need to check first; results are identical either way.
//
// A non-releasing iterator must be drained (or Closed) before the next
// mutation of the tree or cache, like any AppendSchedule result that
// aliases live ropes. A releasing iterator owns everything it walks — the
// detach up front severs the slots from the cache — so cache queries and
// even invalidations between Next calls are safe; they simply rematerialize
// what the emission released.

// emitChunkIDs is the target size of one yielded segment. Chunks are
// reused, so the constant trades callback overhead against the working-set
// granularity of consumers (a 32 KiB chunk streams well through both the
// FiF simulator and buffered writers).
const emitChunkIDs = 4096

// ScheduleIter is a pull-style cursor over the optimal traversal of one
// subtree: successive Next calls yield the schedule in traversal order,
// segment by segment, without materializing it. Obtain one from
// ProfileCache.ScheduleIter or ScheduleIterRelease; see EmitSchedule for
// the push-style equivalent.
type ScheduleIter struct {
	c         *ProfileCache
	v         int
	segs      profile
	segIdx    int
	stack     []rope
	buf       []int
	releasing bool
	pinned    bool
	done      bool
}

// ScheduleIter returns a pull-style iterator over the optimal traversal of
// v's subtree. The iterator holds a Pin on v until it is exhausted or
// Closed; the underlying ropes stay resident, so the caller must drain it
// before mutating the tree or invalidating the cache.
func (c *ProfileCache) ScheduleIter(v int) *ScheduleIter {
	return c.scheduleIter(v, false)
}

// ScheduleIterRelease is ScheduleIter in releasing mode: every rope slot is
// returned to the arena as soon as the walk has consumed it and the
// subtree's profile slices are dropped up front, leaving v's subtree
// clean-but-evicted (peaks still served, profiles rematerialized on
// demand). Releasing engages only when it is sound — every ancestor of v
// dirty and no Pin outstanding anywhere in the cache — and degrades to the
// non-consuming ScheduleIter otherwise; the emitted traversal is identical
// either way.
func (c *ProfileCache) ScheduleIterRelease(v int) *ScheduleIter {
	return c.scheduleIter(v, true)
}

// scheduleIter builds the iterator: ensure under a pin (the slice tier
// could otherwise reclaim v's just-computed slice mid-ensure), then either
// keep the pin (non-releasing) or detach the subtree and take ownership of
// its slice and ropes (releasing).
func (c *ProfileCache) scheduleIter(v int, release bool) *ScheduleIter {
	c.Pin(v)
	c.ensure(v)
	it := c.newIter()
	it.c, it.v = c, v
	if release && c.pinCount == 1 && c.ancestorsDirty(v) {
		c.Unpin(v)
		it.releasing = true
		c.detachSubtree(v)
		it.segs = c.prof[v]
		c.residentBytes.Add(-int64(cap(c.prof[v])) * segmentBytes)
		c.prof[v] = nil
	} else {
		it.pinned = true
		it.segs = c.prof[v]
	}
	return it
}

// ancestorsDirty reports that every proper ancestor of v is dirty — the
// releasing precondition: dirty ancestors hold neither profile slices nor
// rope chains (Invalidate freed both), so nothing outside v's subtree can
// reference the subtree's rope slots.
func (c *ProfileCache) ancestorsDirty(v int) bool {
	for p := c.t.Parent(v); p >= 0; p = c.t.Parent(p) {
		if c.valid[p] {
			return false
		}
	}
	return true
}

// detachSubtree severs v's subtree from the residency machinery ahead of a
// releasing emission: every profile slice except v's own is freed to the
// arena and every rope-ownership chain is cleared *without* freeing its
// slots — the emission walk owns them now and will release each slot as it
// is consumed (every slot a chain of the subtree holds is reachable from
// v's profile). Nodes stay valid with their peaks, i.e. in the evicted
// state of DESIGN.md §2.6.
func (c *ProfileCache) detachSubtree(v int) {
	sc := c.sc
	st := append(sc.evictStack[:0], v)
	var nodes int64
	for len(st) > 0 {
		x := st[len(st)-1]
		st = st[:len(st)-1]
		if !c.valid[x] {
			continue
		}
		var freed int64
		if x != v && c.prof[x] != nil {
			freed += int64(cap(c.prof[x])) * segmentBytes
			sc.arena.freeProfile(c.prof[x])
			c.prof[x] = nil
		}
		if c.owned[x] != 0 {
			freed += int64(c.ownedCount[x]) * ropeBytes
			c.ownedCount[x] = 0
			c.owned[x] = 0 // slots are released one by one during the walk
		}
		if freed != 0 || x == v {
			// v's slice is detached by the caller, so the root counts even
			// when its freed total here is zero; already-evicted interior
			// nodes held nothing and are not counted as released.
			c.residentBytes.Add(-freed)
			nodes++
		}
		st = append(st, c.t.Children(x)...)
	}
	sc.evictStack = st[:0]
	c.streamedNodes.Add(nodes)
}

// Next returns the next segment of the traversal. The returned slice is
// the iterator's reusable chunk, valid until the following Next call; ok is
// false once the traversal is exhausted (the iterator then releases its pin
// or pools its remaining resources, so Close is only needed on early exit).
func (it *ScheduleIter) Next() (seg []int, ok bool) {
	if it.done {
		return nil, false
	}
	if it.buf == nil {
		it.buf = make([]int, 0, emitChunkIDs)
	}
	buf := it.buf[:0]
	a := &it.c.sc.arena
	st := it.stack
	for len(buf) < emitChunkIDs {
		var cur rope
		if len(st) == 0 {
			if it.segIdx >= len(it.segs) {
				break
			}
			cur = it.segs[it.segIdx].nodes
			it.segIdx++
		} else {
			cur = st[len(st)-1]
			st = st[:len(st)-1]
		}
		// Descend to the leftmost leaf, stacking the right halves.
		for cur > 0 {
			n := a.store.node(cur)
			st = append(st, n.right)
			next := n.left
			if it.releasing {
				a.release(cur)
			}
			cur = next
		}
		if cur < 0 {
			buf = append(buf, int(^cur))
		}
	}
	it.stack, it.buf = st, buf
	if len(buf) == 0 {
		it.finish()
		return nil, false
	}
	return buf, true
}

// Close releases the iterator's resources before exhaustion: the pin is
// dropped (non-releasing mode), or the not-yet-walked rope slots are
// abandoned (releasing mode — the detach already severed them from the
// cache, so abandoning them is safe; they stay unused in the cache's rope
// store until the cache is dropped). Close after exhaustion is a no-op.
func (it *ScheduleIter) Close() {
	if !it.done {
		it.finish()
	}
}

// finish tears the iterator down and returns it to the cache's iterator
// pool so that steady-state emission (the expansion loop's per-iteration
// schedule queries) allocates nothing.
func (it *ScheduleIter) finish() {
	it.done = true
	if it.pinned {
		it.c.Unpin(it.v)
		it.pinned = false
	}
	if it.releasing {
		// The profile slice was detached at construction; pool it now that
		// the walk is over (early Close abandons the unvisited slots).
		it.c.sc.arena.freeProfile(it.segs)
	}
	c := it.c
	it.segs = nil
	it.stack = it.stack[:0]
	if c.freeIter == nil {
		it.c = nil
		it.releasing = false
		c.freeIter = it
	}
}

// newIter pops the pooled iterator or allocates a fresh one (nested
// iterations fall back to allocating).
func (c *ProfileCache) newIter() *ScheduleIter {
	if it := c.freeIter; it != nil {
		c.freeIter = nil
		*it = ScheduleIter{stack: it.stack[:0], buf: it.buf}
		return it
	}
	return &ScheduleIter{}
}

// EmitSchedule streams the optimal traversal of v's subtree (what MinMem
// would return on an extracted copy, in the underlying tree's node ids) to
// yield, segment by segment in traversal order, without materializing the
// schedule. Each yielded segment aliases a reusable chunk, valid only for
// the duration of the call. Emission stops early if yield returns false;
// the return value reports whether the full traversal was emitted. The
// cache state afterwards is exactly what AppendSchedule leaves behind.
func (c *ProfileCache) EmitSchedule(v int, yield func(seg []int) bool) bool {
	return emit(c.ScheduleIter(v), yield)
}

// EmitScheduleRelease is EmitSchedule in releasing mode: rope slots return
// to the arena as the walk consumes them and the subtree is left
// clean-but-evicted — the final-emission mode that removes the Θ(n) rope
// floor (see ScheduleIterRelease for when releasing engages and how it
// degrades).
func (c *ProfileCache) EmitScheduleRelease(v int, yield func(seg []int) bool) bool {
	return emit(c.ScheduleIterRelease(v), yield)
}

// emit drains it into yield.
func emit(it *ScheduleIter, yield func(seg []int) bool) bool {
	defer it.Close()
	for {
		seg, ok := it.Next()
		if !ok {
			return true
		}
		if !yield(seg) {
			return false
		}
	}
}
