package liu

// Streaming schedule emission: walking the rope structure of a cached
// profile and handing the traversal to the consumer segment by segment,
// instead of flattening it into one n-word slice. EmitSchedule and
// ScheduleIter stream without touching residency: the cache state after
// the emission is exactly the state AppendSchedule leaves behind
// (AppendSchedule itself is a thin collector over the stream).
//
// An iterator must be drained (or Closed) before the next mutation of the
// tree or cache, like any AppendSchedule result that aliases live ropes.

// emitChunkIDs is the target size of one yielded segment. Chunks are
// reused, so the constant trades callback overhead against the working-set
// granularity of consumers (a 32 KiB chunk streams well through both the
// FiF simulator and buffered writers).
const emitChunkIDs = 4096

// ScheduleIter is a pull-style cursor over the optimal traversal of one
// subtree: successive Next calls yield the schedule in traversal order,
// segment by segment, without materializing it. Obtain one from
// ProfileCache.ScheduleIter; see EmitSchedule for the push-style
// equivalent.
type ScheduleIter struct {
	c      *ProfileCache
	v      int
	segs   profile
	segIdx int
	stack  []rope
	buf    []int
	done   bool
}

// ScheduleIter returns a pull-style iterator over the optimal traversal of
// v's subtree. The iterator holds a Pin on v until it is exhausted or
// Closed; the underlying ropes stay resident, so the caller must drain it
// before mutating the tree or invalidating the cache. The pin is taken
// before the ensure, since the slice tier could otherwise reclaim v's
// just-computed slice mid-ensure.
func (c *ProfileCache) ScheduleIter(v int) *ScheduleIter {
	c.Pin(v)
	c.ensure(v)
	it := c.newIter()
	it.c, it.v, it.segs = c, v, c.prof[v]
	return it
}

// Next returns the next segment of the traversal. The returned slice is
// the iterator's reusable chunk, valid until the following Next call; ok is
// false once the traversal is exhausted (the iterator then releases its pin,
// so Close is only needed on early exit).
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
			cur = n.left
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

// Close releases the iterator's pin before exhaustion. Close after
// exhaustion is a no-op.
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
	c := it.c
	c.Unpin(it.v)
	it.segs = nil
	it.stack = it.stack[:0]
	if c.freeIter == nil {
		it.c = nil
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
