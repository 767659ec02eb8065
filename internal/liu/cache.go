package liu

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/tree"
)

// TreeLike is the read-only structural view of a task tree that the profile
// cache needs. Both *tree.Tree and the growing mutable trees of package
// expand satisfy it.
type TreeLike interface {
	N() int
	Parent(i int) int
	Children(i int) []int
	Weight(i int) int64
}

// CacheOptions tunes the residency policy of a ProfileCache. The zero value
// is the unbounded cache of PR 1/PR 2: every computed profile stays resident
// until invalidated, and the policy machinery adds no overhead.
//
// Residency never affects results: an evicted profile is recomputed on
// demand from its (clean) children, and recomputation is deterministic, so
// every query answer is bit-identical under every option setting. Only the
// memory/time trade-off moves.
type CacheOptions struct {
	// MaxResidentBytes caps the bytes held by resident profile segment
	// slices and rope concatenation nodes. Under pressure the cache evicts
	// in two tiers (see DESIGN.md): the segment slices of already-merged
	// profiles are dropped FIFO as soon as the budget is exceeded, and
	// whole clean subtrees hanging off an invalidated path are dropped —
	// slices and rope slots — the moment the path is dirtied. 0 means
	// unlimited.
	//
	// The cap is a soft target: the working set of the query in flight
	// (the profile being flattened, the child slices of the merge running
	// now, and the schedule ropes of whatever subtree the caller asked
	// for) cannot be evicted, so a query whose own working set exceeds
	// the budget will exceed it for the duration of that query.
	MaxResidentBytes int64
	// Done, when non-nil, is a cancellation signal (typically a
	// context's Done channel). Bottom-up recomputation passes poll it
	// about every cancelPollInterval recomputations and stop early once
	// it is closed, leaving every already-computed profile valid and
	// every unreached node dirty — a state from which the cache is fully
	// re-runnable. After a cancellation (Canceled reports true) query
	// results are unspecified until the caller checks the signal: a
	// Peak may be stale and an emission may be empty, so cancelable
	// callers must test Canceled (or their context) before trusting an
	// answer. nil (the default) disables polling entirely, so the
	// non-cancelable hot path pays one nil check per recompute.
	Done <-chan struct{}
}

// cancelPollInterval is how many recomputations pass between polls of
// CacheOptions.Done. Recomputes are heavyweight (a k-way merge plus a
// canonicalization), so the poll amortizes to noise while still bounding
// cancellation latency to a few thousand nodes of work.
const cancelPollInterval = 1024

// segmentBytes and ropeBytes are the accounting units of the residency
// budget: the sizes of a profile segment and of a rope slot. A leaf rope
// lives in its handle and costs nothing.
const (
	segmentBytes = int64(unsafe.Sizeof(segment{}))
	ropeBytes    = int64(unsafe.Sizeof(ropeNode{}))
)

// ProfileCache memoizes, per node, the canonical optimal hill–valley
// profile of the node's subtree (the object MinMem computes transiently).
// It is the engine behind incremental recursive expansion: after a local
// tree mutation, only the profiles on the path from the mutated node to the
// root change, so Invalidate marks exactly that path dirty and the next
// Peak or AppendSchedule query recomputes only dirty nodes, reusing every
// clean child profile. A full cold query costs one bottom-up pass (the same
// work as MinMem); a query after k expansions costs O(Σ path merge work)
// instead of re-running MinMem on the whole subtree.
//
// Node states. Every node is in one of four states:
//
//   - dirty (valid[v] == false): peak and profile are stale;
//   - resident (valid[v], prof[v] != nil): peak and profile are usable;
//   - sliceless (valid[v], prof[v] == nil, owned[v] != 0): the peak is
//     correct and the node's rope slots are still live (they are shared
//     upward into resident ancestors' profiles), but the profile's segment
//     slice was reclaimed after its parent consumed it; it is rebuilt
//     (deterministically, on the same slots) if the parent is ever
//     recomputed;
//   - evicted (valid[v], prof[v] == nil, owned[v] == 0): slice and ropes
//     both reclaimed; the whole subtree below is in the same state.
//
// A node whose canonicalization made no concatenation owns no slot (its
// own leaf lives in a rope handle), so for it sliceless and evicted are the
// same state.
//
// Invariants (see DESIGN.md for the full memory-model write-up):
//
//   - dirty-up-closure: a dirty node's ancestors are all dirty (Invalidate
//     walks to the root), hence a clean node's entire subtree is clean;
//   - rope-reference locality: a rope owned by v is referenced only by v's
//     profile and by profiles of v's ancestors. Rope slots are therefore
//     freed only when no ancestor holds a profile slice — which is
//     guaranteed O(1) at exactly one moment, inside Invalidate, right
//     after the whole root path has been dirtied; that is the only place
//     subtree eviction runs;
//   - slice locality: a profile's segment slice is referenced by nobody
//     but the node itself (merging copies segments), so it can be dropped
//     whenever its parent is not mid-merge — the cache drops it right
//     after the parent's merge consumes it;
//   - profiles are immutable once computed: merging copies segments and
//     rope concatenation never mutates its operands, so a parent
//     recomputation can share child profiles without spoiling them;
//   - nodes appended to the tree after Grow start dirty.
//
// Allocation discipline: the transient state of a recomputation lives in a
// cacheScratch, and the objects that survive it (the profile slice and the
// rope slots it created) come from the scratch's arena and are returned to
// it by Invalidate and by eviction, so steady-state recomputation is
// allocation-free and arena memory is bounded by the live profile set (see
// arena.go). Rope slots live in one pointer-free paged ropeStore per cache.
// Under CacheOptions the segment-slice free lists are capped so that
// pooled slices beyond the budget are released to the garbage collector.
//
// Concurrency discipline: a ProfileCache is single-writer. The one
// exception is EnsureParallel, which shards a warm across disjoint
// subtrees, each owned by exactly one worker with a private cacheScratch.
// Under a residency policy each worker also evicts, but only within its own
// shard and only into its private arena, so the sharded warm stays
// race-free. Pin keeps a subtree whose ropes a reader is walking (a
// flatten, a schedule iterator) safe from the writer's evictions.
type ProfileCache struct {
	t     TreeLike
	prof  []profile
	peak  []int64
	valid []bool
	owned []rope // head of the rope-ownership chain per node

	// Residency-policy state (all zero-cost when opts is the zero value).
	opts       CacheOptions
	ownedCount []int32 // ropes on the owned chain, for byte accounting
	pinned     []int32 // >0 while a reader or in-flight merge relies on v
	pinCount   int64   // outstanding pins cache-wide (writer-side count)
	inSliceQ   []bool  // dedupe flag for the consumed-slice queue

	// canceled latches once a recomputation pass observes the Done
	// signal; every scratch (the primary and the parallel warmers')
	// checks it so a cancellation stops all shards of a warm.
	canceled atomic.Bool

	residentBytes atomic.Int64
	peakResident  atomic.Int64
	evictions     atomic.Int64
	evictedNodes  atomic.Int64
	slicedProfs   atomic.Int64
	remats        atomic.Int64

	sc       *cacheScratch // primary scratch (sequential queries)
	freeIter *ScheduleIter // pooled emission iterator (see emit.go)
}

// CacheStats reports the residency counters of a ProfileCache. All values
// are monotone except ResidentBytes.
type CacheStats struct {
	// ResidentBytes is the current footprint of resident profile slices
	// and rope slots (free lists excluded).
	ResidentBytes int64
	// PeakResidentBytes is the high-water mark of ResidentBytes, the
	// number the MaxResidentBytes budget is calibrated against. It never
	// reads below the true high-water mark, and reads above it only after
	// a sharded warm (EnsureParallel) under a byte budget, by at most the
	// workers' batched credit: 1/32 of MaxResidentBytes.
	PeakResidentBytes int64
	// Evictions counts subtree evictions; EvictedNodes the node profiles
	// they reclaimed (slices and rope slots). A node counts only if it
	// held something: a segment slice, or rope slots, which only nodes
	// whose canonicalization concatenated segments own (leaf ids live in
	// rope handles).
	Evictions    int64
	EvictedNodes int64
	// SlicedProfiles counts consumed segment slices dropped by the
	// budget's slice tier (rope slots retained).
	SlicedProfiles int64
	// Rematerializations counts recomputations of clean-but-reclaimed
	// profiles — the time cost paid for the memory bound.
	Rematerializations int64
	// StreamedNodes is always 0: schedule emission hands no profiles back
	// to the arena. The field stays for readers of CacheStats.
	StreamedNodes int64
}

// cacheScratch is the transient state of ensure/recompute. Each concurrent
// warmer owns one; the embedded arena provides the pooled allocations and
// sliceQ holds that warmer's consumed-slice eviction candidates.
type cacheScratch struct {
	stack []cacheFrame
	parts []profile
	rest  []profile // mergeCanonical's runs after the lead prefix
	merge mergeScratch
	canon canonStack
	arena profileArena

	// Batched resident accounting of a sharded-warm worker (see
	// EnsureParallel); batch is 0 on the primary scratch, which accounts
	// exactly. credit is bytes the worker has added to residentBytes but
	// not used yet: it reserves batch more when its credit runs out and
	// hands the excess back when frees lift its credit past 2·batch, so
	// residentBytes never falls below the true footprint. sliced counts
	// dropped slices not yet added to slicedProfs.
	batch, credit, sliced int64

	// sliceQ is the FIFO of consumed profiles (nodes whose parent has
	// merged them); entries are validated lazily at pop.
	sliceQ      []int
	sliceHead   int
	tick        uint32 // recomputes since the last Done poll
	evictStack  []int  // reusable eviction traversal scratch
	candScratch []int  // reusable Invalidate candidate scratch
}

type cacheFrame struct {
	node     int
	expanded bool
}

// newCacheScratch returns a scratch whose arena allocates from store and
// pools segment slices up to poolCap bytes (0 = unlimited).
func newCacheScratch(store *ropeStore, poolCap int64) *cacheScratch {
	sc := &cacheScratch{}
	sc.arena.store = store
	sc.arena.poolCap = poolCap
	sc.canon.arena = &sc.arena
	return sc
}

// NewProfileCache creates an empty, unbounded cache over t; nothing is
// computed until the first query.
func NewProfileCache(t TreeLike) *ProfileCache {
	return NewProfileCacheOpts(t, CacheOptions{})
}

// NewProfileCacheOpts creates an empty cache over t with the given
// residency policy.
func NewProfileCacheOpts(t TreeLike, opts CacheOptions) *ProfileCache {
	c := &ProfileCache{t: t, opts: opts, sc: newCacheScratch(&ropeStore{}, opts.MaxResidentBytes)}
	c.Grow()
	return c
}

// Options returns the cache's residency policy.
func (c *ProfileCache) Options() CacheOptions { return c.opts }

// Stats returns the current residency counters.
func (c *ProfileCache) Stats() CacheStats {
	return CacheStats{
		ResidentBytes:      c.residentBytes.Load(),
		PeakResidentBytes:  c.peakResident.Load(),
		Evictions:          c.evictions.Load(),
		EvictedNodes:       c.evictedNodes.Load(),
		SlicedProfiles:     c.slicedProfs.Load(),
		Rematerializations: c.remats.Load(),
	}
}

// policied reports whether any residency policy is active; when false, the
// eviction machinery is skipped entirely and the cache behaves exactly like
// the unbounded PR 1/PR 2 cache.
func (c *ProfileCache) policied() bool {
	return c.opts.MaxResidentBytes > 0
}

// overBudget reports that the resident footprint, as the scratch sc sees
// it, exceeds the byte budget. A warm worker discounts its own unused
// credit; the other workers' credit (at most 2·batch each) still counts,
// so workers evict early rather than late.
func (c *ProfileCache) overBudget(sc *cacheScratch) bool {
	return c.opts.MaxResidentBytes > 0 && c.residentBytes.Load()-sc.credit > c.opts.MaxResidentBytes
}

// availNode reports that v's profile is resident and usable as-is.
func (c *ProfileCache) availNode(v int) bool { return c.valid[v] && c.prof[v] != nil }

// Grow extends the cache to the tree's current node count. Call it after
// nodes have been appended to the underlying tree; the new nodes start
// dirty. It panics once the tree has more than math.MaxInt32 nodes (the
// limit tree.New enforces), past which a node id no longer fits a leaf rope
// handle.
func (c *ProfileCache) Grow() {
	n := c.t.N()
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("liu: profile cache over %d nodes, limit %d", n, math.MaxInt32))
	}
	k := n - len(c.valid)
	if k <= 0 {
		return
	}
	c.prof = append(c.prof, make([]profile, k)...)
	c.peak = append(c.peak, make([]int64, k)...)
	c.valid = append(c.valid, make([]bool, k)...)
	c.owned = append(c.owned, make([]rope, k)...)
	c.ownedCount = append(c.ownedCount, make([]int32, k)...)
	c.pinned = append(c.pinned, make([]int32, k)...)
	c.inSliceQ = append(c.inSliceQ, make([]bool, k)...)
}

// Pin marks v (and, for subtree eviction, everything below it) as
// unevictable until the matching Unpin. AppendSchedule and the schedule
// iterators pin the queried root while they walk its ropes. Pinning
// nests.
func (c *ProfileCache) Pin(v int) { c.pinned[v]++; c.pinCount++ }

// Unpin releases a Pin.
func (c *ProfileCache) Unpin(v int) { c.pinned[v]--; c.pinCount-- }

// Invalidate marks v and every ancestor of v dirty, releasing their cached
// profiles and rope slots back to the arena. Call it with the topmost node
// whose subtree changed (for an expansion of node i into i → i2 → i3, that
// is i3: i's own subtree is untouched and stays cached). Freeing the whole
// root path at once is what makes eager reclamation safe: a rope owned by
// a freed node is referenced only by profiles of its ancestors, all of
// which are freed by the same call.
//
// Under a residency policy this is also the subtree-eviction point: once
// the path is dirty, the clean subtrees hanging off it are exactly the
// nodes with no profile-holding ancestor, so their rope slots can be freed
// with no further checks. While the footprint exceeds the budget, those
// subtrees are evicted deepest-first.
func (c *ProfileCache) Invalidate(v int) {
	a := &c.sc.arena
	policied := c.policied()
	cand := c.sc.candScratch[:0]
	for ; v != tree.None; v = c.t.Parent(v) {
		if policied && c.valid[v] {
			// The walk's previous path node is already dirty, so the valid
			// check keeps exactly the clean subtrees hanging off the path.
			for _, ch := range c.t.Children(v) {
				if c.valid[ch] {
					cand = append(cand, ch)
				}
			}
		}
		c.valid[v] = false
		var freed int64
		if c.prof[v] != nil {
			freed += int64(cap(c.prof[v])) * segmentBytes
			a.freeProfile(c.prof[v])
			c.prof[v] = nil
		}
		if c.owned[v] != 0 {
			freed += int64(c.ownedCount[v]) * ropeBytes
			c.ownedCount[v] = 0
			a.freeOwned(c.owned[v])
			c.owned[v] = 0
		}
		if freed != 0 {
			c.residentBytes.Add(-freed)
		}
	}
	if len(cand) > 0 {
		c.evictHanging(cand, c.sc)
	}
	c.sc.candScratch = cand[:0]
}

// evictHanging evicts the clean subtrees hanging off a freshly dirtied
// path, deepest-first, while the budget is exceeded. Safe exactly here:
// every candidate's ancestors have just been dirtied, so no resident
// profile references the candidates' rope slots.
func (c *ProfileCache) evictHanging(cand []int, sc *cacheScratch) {
	for _, v := range cand {
		if !c.valid[v] || c.pinned[v] != 0 {
			continue
		}
		// faultinject.CacheEvict forces the eviction regardless of
		// pressure: this is a safe eviction window (the candidate's
		// ancestors were all just dirtied), so a forced eviction must be
		// result-neutral — the property the injection harness asserts.
		if faultinject.Fire(faultinject.CacheEvict) || c.overBudget(sc) {
			c.evictSubtree(v, sc)
		}
	}
}

// NoteCandidate offers v for immediate subtree eviction. Mutators call it
// for a clean subtree that ends up below freshly appended dirty nodes (the
// expanded node i under its new chain), which the Invalidate walk cannot
// see; the contract is the same as Invalidate's — every ancestor of v must
// be dirty at the time of the call.
func (c *ProfileCache) NoteCandidate(v int) {
	if !c.policied() || !c.valid[v] || c.pinned[v] != 0 {
		return
	}
	if c.overBudget(c.sc) {
		c.evictSubtree(v, c.sc)
	}
}

// Peak returns the optimal peak memory of v's subtree (what
// liu.MinMemPeak would report on an extracted copy), recomputing dirty
// profiles as needed. The peak of a clean-but-reclaimed profile is served
// without rematerializing it.
func (c *ProfileCache) Peak(v int) int64 {
	if !c.valid[v] {
		c.ensure(v)
	}
	return c.peak[v]
}

// AppendSchedule appends the optimal traversal of v's subtree (what
// liu.MinMem would return on an extracted copy, expressed in the underlying
// tree's node ids) to dst and returns the extended slice. It is a thin
// collector over EmitSchedule; callers that can consume the traversal
// segment by segment should use the emitter directly and skip the slice.
func (c *ProfileCache) AppendSchedule(v int, dst []int) []int {
	c.EmitSchedule(v, func(seg []int) bool {
		dst = append(dst, seg...)
		return true
	})
	return dst
}

// ensure recomputes every dirty or reclaimed profile in v's subtree,
// bottom-up, using the primary scratch.
func (c *ProfileCache) ensure(v int) { c.ensureWith(v, c.sc) }

// ensureWith makes v's profile resident, recomputing every dirty or
// reclaimed profile in v's subtree bottom-up and reusing resident
// children. It works on an explicit stack to survive elimination-tree
// depths far beyond the goroutine recursion limit. The caller must
// guarantee exclusive ownership of v's subtree region of the cache arrays
// for the duration of the call (trivially true for the sequential entry
// points; EnsureParallel enforces it by sharding).
//
// Under a residency policy the pass streams: each merge enqueues the child
// slices it just consumed, and the budget reclaims them FIFO while the
// pass continues — the slice tier never touches a profile that a merge
// still ahead of it will read (only consumed slices are enqueued, and
// subtree eviction runs exclusively inside Invalidate), so the pass
// terminates after exactly one recomputation per non-resident node.
func (c *ProfileCache) ensureWith(v int, sc *cacheScratch) {
	if c.availNode(v) {
		return
	}
	cancelable := c.opts.Done != nil
	if cancelable && c.canceled.Load() {
		return
	}
	policied := c.policied()
	st := sc.stack[:0]
	st = append(st, cacheFrame{node: v})
	for len(st) > 0 {
		if cancelable && c.pollCancel(sc) {
			break
		}
		f := st[len(st)-1]
		if !f.expanded {
			st[len(st)-1].expanded = true
			for _, ch := range c.t.Children(f.node) {
				if !c.availNode(ch) {
					st = append(st, cacheFrame{node: ch})
				}
			}
			continue
		}
		st = st[:len(st)-1]
		c.recompute(f.node, sc)
		if policied {
			for _, ch := range c.t.Children(f.node) {
				c.pushConsumed(sc, ch)
			}
			c.slicePressure(sc)
		}
	}
	sc.stack = st[:0]
}

// pollCancel advances the scratch's recompute tick and, every
// cancelPollInterval steps, polls the Done channel, latching the
// cache-wide canceled flag. It reports whether the pass should stop.
// A canceled pass leaves each node either fully recomputed or untouched
// (recompute publishes a node's state only at its end), so cancellation
// can never expose a partially built profile.
func (c *ProfileCache) pollCancel(sc *cacheScratch) bool {
	sc.tick++
	if sc.tick%cancelPollInterval == 0 {
		select {
		case <-c.opts.Done:
			c.canceled.Store(true)
		default:
		}
	}
	return c.canceled.Load()
}

// Canceled reports whether a recomputation pass observed the Done signal.
// Once set it stays set until ResetCancel, and every query result produced
// after the signal is unspecified (stale peaks, empty emissions).
func (c *ProfileCache) Canceled() bool { return c.canceled.Load() }

// ResetCancel clears the canceled latch so the cache can serve queries
// again after its owner has handled a cancellation. The cache state is
// already consistent — computed nodes valid, unreached nodes dirty — so
// the next query simply resumes the remaining work.
func (c *ProfileCache) ResetCancel() { c.canceled.Store(false) }

// recompute rebuilds v's profile from its children's (all resident)
// profiles: exactly the per-node step of minMemProfileWithPeaks, with every
// surviving allocation drawn from the scratch's arena.
//
// A sliceless node (clean, rope slots live) is rebuilt on its own slots.
// Its children still hold the rope handles its chain was built from — a
// child whose ropes changed would have dirtied v, and a sliceless child is
// itself rebuilt on its own slots first — so the canonicalization repeats
// the chain's concatenations one for one, and cat replays the chain
// (checking each slot) instead of allocating. The rebuilt profile is
// therefore bit-identical to the one resident ancestors already reference,
// and nothing is freed or allocated on the rope side.
func (c *ProfileCache) recompute(v int, sc *cacheScratch) {
	if c.valid[v] {
		// v was clean but reclaimed: this recomputation is the deferred
		// cost of an earlier eviction.
		c.remats.Add(1)
	}
	a := &sc.arena
	a.replaying, a.cursor = c.owned[v] != 0, c.owned[v]
	parts := sc.parts[:0]
	var cs int64
	for _, ch := range c.t.Children(v) {
		parts = append(parts, c.prof[ch])
		cs += c.t.Weight(ch)
	}
	canon := sc.mergeCanonical(parts, ownSegment(v, c.t.Weight(v), cs))
	sc.parts = parts[:0]
	bytes := int64(cap(canon)) * segmentBytes
	if a.replaying {
		if a.cursor != 0 {
			panic("liu: sliceless rebuild made fewer concatenations than its chain holds")
		}
		a.replaying = false
	} else {
		chain, nropes := a.takeOwned()
		c.owned[v] = chain
		c.ownedCount[v] = nropes
		bytes += int64(nropes) * ropeBytes
	}
	c.prof[v] = canon
	// Cumulative hills strictly decrease: the first is the peak.
	c.peak[v] = canon[0].hill
	c.valid[v] = true
	c.addResident(sc, bytes)
}

// addResident accounts n resident bytes (negative when freeing) made by
// the scratch sc. The primary scratch updates the counter and its
// high-water mark at once; a warm worker draws on its credit and settles
// with the counter only when the credit runs out or piles up.
func (c *ProfileCache) addResident(sc *cacheScratch, n int64) {
	if sc.batch == 0 {
		c.notePeak(c.residentBytes.Add(n))
		return
	}
	sc.credit -= n
	if sc.credit < 0 || sc.credit > 2*sc.batch {
		c.settle(sc, sc.batch)
	}
}

// settle sets a warm worker's credit to target, reserving or handing back
// the difference in residentBytes, and flushes its sliced-profile count.
// Under a residency policy a reservation records the counter, which then
// bounds the footprint from above, as a high-water candidate. Without one
// a warm only adds bytes, so the footprint peaks at the join, where
// EnsureParallel records it exactly.
func (c *ProfileCache) settle(sc *cacheScratch, target int64) {
	d := target - sc.credit
	sc.credit = target
	r := c.residentBytes.Add(d)
	if d > 0 && c.policied() {
		c.notePeak(r)
	}
	if sc.sliced != 0 {
		c.slicedProfs.Add(sc.sliced)
		sc.sliced = 0
	}
}

// notePeak raises the high-water mark to r.
func (c *ProfileCache) notePeak(r int64) {
	for {
		p := c.peakResident.Load()
		if r <= p || c.peakResident.CompareAndSwap(p, r) {
			return
		}
	}
}

// warmBatch is the credit a worker of a sharded warm over workers shards
// reserves at a time: 1/64 of the byte budget split among the workers, or
// 64 KiB without a budget. The workers' unused credit, at most
// 2·workers·batch bytes (1/32 of the budget), is the slack by which
// ResidentBytes can overstate the footprint during the warm and by which
// PeakResidentBytes can overstate its high-water mark.
func (c *ProfileCache) warmBatch(workers int) int64 {
	if b := c.opts.MaxResidentBytes; b > 0 {
		return max(b/(64*int64(workers)), 1)
	}
	return 64 << 10
}

// pushConsumed registers a child profile whose parent has just merged it:
// from here until the next invalidation of its parent, the segment slice
// is dead weight, queued FIFO for the budget's slice tier.
func (c *ProfileCache) pushConsumed(sc *cacheScratch, v int) {
	if c.prof[v] == nil || c.inSliceQ[v] {
		return
	}
	// faultinject.CacheEvict forces a mid-warm slice drop: v's parent has
	// already merged the slice, so dropping it here is always safe and
	// must be result-neutral (the slice is rebuilt on demand).
	if c.pinned[v] == 0 && faultinject.Fire(faultinject.CacheEvict) {
		c.evictSlice(v, sc)
		return
	}
	c.inSliceQ[v] = true
	sc.sliceQ = append(sc.sliceQ, v)
}

// slicePressure drops consumed segment slices, oldest first, until the
// footprint fits the budget or the queue runs dry. Validation at pop keeps
// it safe: only resident, unpinned nodes whose parent holds its own
// profile (i.e. the merge that read this slice has completed and not been
// invalidated since) are dropped, so no merge still ahead of the current
// pass can lose an input. Entries skipped because the node is pinned are
// re-queued — the pin is transient (a flatten or an iterator) and
// the slice stays evictable once it lifts; every other skip is stale and
// dropped.
func (c *ProfileCache) slicePressure(sc *cacheScratch) {
	// Borrow the eviction scratch for the pinned re-queue (evictSubtree
	// never runs inside this loop).
	requeue := sc.evictStack[:0]
	for c.overBudget(sc) && sc.sliceHead < len(sc.sliceQ) {
		v := sc.sliceQ[sc.sliceHead]
		sc.sliceHead++
		if c.pinned[v] != 0 {
			requeue = append(requeue, v)
			continue
		}
		c.inSliceQ[v] = false
		p := c.t.Parent(v)
		if c.availNode(v) && p != tree.None && c.availNode(p) {
			c.evictSlice(v, sc)
		}
	}
	if sc.sliceHead >= len(sc.sliceQ) {
		sc.sliceQ, sc.sliceHead = sc.sliceQ[:0], 0
	}
	sc.sliceQ = append(sc.sliceQ, requeue...)
	sc.evictStack = requeue[:0]
}

// evictSlice reclaims v's segment slice (rope slots stay: they are shared
// into resident ancestors' profiles), leaving v sliceless.
func (c *ProfileCache) evictSlice(v int, sc *cacheScratch) {
	c.addResident(sc, -int64(cap(c.prof[v]))*segmentBytes)
	sc.arena.freeProfile(c.prof[v])
	c.prof[v] = nil
	if sc.batch == 0 {
		c.slicedProfs.Add(1)
	} else {
		sc.sliced++
	}
}

// evictSubtree reclaims everything v's whole clean subtree holds — segment
// slices and rope chains — returning them to the evicting scratch's
// arena. Peaks and validity are untouched: the subtree stays clean, only
// its memory is gone until rematerialized. Only Invalidate/NoteCandidate
// call this, on subtrees whose ancestors were all just dirtied; pinned
// descendants (an iterator still walking them) are skipped with their whole
// subtrees, which is safe because a skipped subtree's ropes are referenced
// only from within itself once everything above it is profile-free.
func (c *ProfileCache) evictSubtree(v int, sc *cacheScratch) {
	a := &sc.arena
	st := append(sc.evictStack[:0], v)
	var nodes int64
	for len(st) > 0 {
		x := st[len(st)-1]
		st = st[:len(st)-1]
		if c.pinned[x] != 0 {
			continue
		}
		var freed int64
		if c.prof[x] != nil {
			freed += int64(cap(c.prof[x])) * segmentBytes
			a.freeProfile(c.prof[x])
			c.prof[x] = nil
		}
		if c.owned[x] != 0 {
			freed += int64(c.ownedCount[x]) * ropeBytes
			c.ownedCount[x] = 0
			a.freeOwned(c.owned[x])
			c.owned[x] = 0
		}
		if freed != 0 {
			c.residentBytes.Add(-freed)
			nodes++
		}
		st = append(st, c.t.Children(x)...)
	}
	sc.evictStack = st[:0]
	if nodes > 0 {
		c.evictions.Add(1)
		c.evictedNodes.Add(nodes)
	}
}

// EnsureParallel warms v's subtree with up to workers concurrent warmers:
// the dirty region under v is sharded into disjoint subtrees, each ensured
// by exactly one worker with a private scratch (and private arena), then
// the residual top of the region is finished sequentially. The cached
// values are identical to a sequential ensure — only the wall-clock
// changes — and the sharding is race-clean because workers write disjoint
// index ranges of the cache arrays and never resize them, and allocate rope
// slots from disjoint pages of the shared store. Under a residency policy
// every worker drops consumed slices within its own shard into its own
// arena; at the join the primary arena absorbs every worker's free rope
// slots and the surviving queue entries pass to the primary scratch.
//
// Workers batch their resident-byte and sliced-profile accounting through
// a credit of warmBatch bytes (see cacheScratch), so the shared counters
// are touched once per batch instead of once per recompute and dropped
// slice. At the join every worker hands its credit back: ResidentBytes is
// exact again, and PeakResidentBytes is never below the true high-water
// mark and at most warmBatch's slack above it.
//
// A panic inside a warmer (an injected faultinject.ArenaAlloc failure, or
// a genuine bug) is re-raised on the calling goroutine at the join, after
// the surviving workers have finished their shards and the slice queues
// have been handed over — the cache stays consistent (recompute publishes
// a node only at its end) and the caller's recover sees the original
// panic value instead of the process dying in a bare goroutine.
func (c *ProfileCache) EnsureParallel(v, workers int) {
	if c.availNode(v) {
		return
	}
	if workers <= 1 {
		c.ensure(v)
		return
	}
	roots := c.shardRoots(v, workers)
	if len(roots) < 2 {
		c.ensure(v)
		return
	}
	if workers > len(roots) {
		workers = len(roots)
	}
	scratches := make([]*cacheScratch, workers)
	batch := c.warmBatch(workers)
	var next int64
	var firstPanic atomic.Pointer[any]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sc := newCacheScratch(c.sc.arena.store, c.sc.arena.poolCap)
		sc.batch = batch
		scratches[w] = sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					firstPanic.CompareAndSwap(nil, &r)
					// Stop the other warmers at their next poll; the latch
					// is lifted again below once every goroutine has joined.
					c.canceled.Store(true)
				}
			}()
			for {
				i := atomic.AddInt64(&next, 1) - 1
				if i >= int64(len(roots)) {
					return
				}
				c.ensureWith(roots[i], sc)
			}
		}()
	}
	wg.Wait()
	for _, sc := range scratches {
		c.settle(sc, 0)
		c.sc.sliceQ = append(c.sc.sliceQ, sc.sliceQ[sc.sliceHead:]...)
		c.sc.arena.absorb(&sc.arena)
	}
	c.notePeak(c.residentBytes.Load())
	if p := firstPanic.Load(); p != nil {
		if c.opts.Done == nil {
			// The latch was only a sibling-stop signal, not a caller-visible
			// cancellation: clear it so a recovering caller can keep using
			// the cache.
			c.canceled.Store(false)
		}
		panic(*p)
	}
	c.ensure(v)
}

// CheckInvariants audits the cache's internal accounting and state
// machine: the resident-byte counter must equal the bytes recomputed from
// the per-node records, pins must be balanced and non-negative, no dirty
// node may hold a profile, and the dirty-up-closure must hold (a clean
// node's children are clean). It also audits the rope store: every
// ownership chain must be as long as its byte accounting claims, and no
// slot may sit on two chains or on both a chain and the primary free
// list. The cancellation and fault-injection harnesses call it after
// interrupting the cache mid-work to prove the interruption left it sound.
// It returns the first violation found.
func (c *ProfileCache) CheckInvariants() error {
	if err := c.checkStore(); err != nil {
		return err
	}
	var bytes, pins int64
	for v := 0; v < c.t.N() && v < len(c.valid); v++ {
		if c.prof[v] != nil {
			bytes += int64(cap(c.prof[v])) * segmentBytes
		}
		bytes += int64(c.ownedCount[v]) * ropeBytes
		if c.pinned[v] < 0 {
			return fmt.Errorf("liu: node %d has negative pin count %d", v, c.pinned[v])
		}
		pins += int64(c.pinned[v])
		if c.prof[v] != nil && !c.valid[v] {
			return fmt.Errorf("liu: dirty node %d holds a profile", v)
		}
		if c.valid[v] {
			for _, ch := range c.t.Children(v) {
				if !c.valid[ch] {
					return fmt.Errorf("liu: clean node %d has dirty child %d (dirty-up-closure broken)", v, ch)
				}
			}
		}
	}
	if got := c.residentBytes.Load(); got != bytes {
		return fmt.Errorf("liu: resident-byte counter %d, per-node records sum to %d", got, bytes)
	}
	if pins != c.pinCount {
		return fmt.Errorf("liu: pin counter %d, per-node pins sum to %d", c.pinCount, pins)
	}
	return nil
}

// checkStore walks every ownership chain, the primary arena's pending
// chain and its free list, marking each slot; a slot met twice is on two
// lists (or a list is cyclic).
func (c *ProfileCache) checkStore() error {
	a := &c.sc.arena
	seen := make([]bool, a.store.slots())
	// walk marks the list at head; v is the owning node, or -1 for the
	// arena's own lists.
	walk := func(head rope, v int) (int32, error) {
		var n int32
		for r := head; r != 0; r = a.store.node(r).next {
			if r < 0 || int(r) >= len(seen) {
				return n, fmt.Errorf("liu: rope list of node %d holds invalid handle %d", v, r)
			}
			if seen[r] {
				return n, fmt.Errorf("liu: rope slot %d (list of node %d) is on two lists or a cycle", r, v)
			}
			seen[r] = true
			n++
		}
		return n, nil
	}
	for v := 0; v < c.t.N() && v < len(c.owned); v++ {
		n, err := walk(c.owned[v], v)
		if err != nil {
			return err
		}
		if n != c.ownedCount[v] {
			return fmt.Errorf("liu: node %d owns %d rope slots, accounts for %d", v, n, c.ownedCount[v])
		}
	}
	if n, err := walk(a.owned, -1); err != nil {
		return err
	} else if n != a.allocs {
		return fmt.Errorf("liu: pending chain holds %d rope slots, arena counts %d", n, a.allocs)
	}
	_, err := walk(a.free, -1)
	return err
}

// shardRoots picks the roots of the parallel warm: maximal dirty subtrees
// under v whose dirty-node count is at most a grain chosen to yield several
// shards per worker. Shards are disjoint by maximality, so each can be
// ensured by an independent worker. Clean-but-reclaimed subtrees below a
// shard are rematerialized by that shard's worker as the bottom-up pass
// reaches their parents.
func (c *ProfileCache) shardRoots(v, workers int) []int {
	// Preorder over the dirty region (clean subtrees cost a warm nothing).
	order := make([]int, 0, 1024)
	stack := append(make([]int, 0, 64), v)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.valid[x] {
			continue
		}
		order = append(order, x)
		for _, ch := range c.t.Children(x) {
			stack = append(stack, ch)
		}
	}
	grain := len(order) / (4 * workers)
	if grain < 1 {
		grain = 1
	}
	// Dirty-subtree sizes, bottom-up (reverse preorder).
	size := make([]int32, c.t.N())
	for i := len(order) - 1; i >= 0; i-- {
		x := order[i]
		size[x]++
		if x != v {
			size[c.t.Parent(x)] += size[x]
		}
	}
	roots := make([]int, 0, 4*workers)
	for _, x := range order {
		if int(size[x]) <= grain && (x == v || int(size[c.t.Parent(x)]) > grain) {
			roots = append(roots, x)
		}
	}
	return roots
}
