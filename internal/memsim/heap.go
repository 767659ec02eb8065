package memsim

import "slices"

// NodeHeap is an indexed min-heap of node ids ordered by an int64 key, with
// O(log n) Push/Remove and O(1) Peek. It is the one Furthest-in-Future
// eviction queue of the module: the simulator's, and the byte-level
// executor's (internal/oocexec). For FiF the key is the negated schedule
// position of the node's parent, so the minimum-key element is the active
// data used furthest in the future.
//
// The id → heap-slot index is a plain slice (idx), grown on demand, so that
// a Simulator can clear and refill the heap without allocating. Key ties are
// broken by rank when set (the sibling order of a mutable tree, matching the
// BFS numbering an extracted subtree would receive) and by smaller id
// otherwise. The zero value is an empty heap with the id tie-break.
type NodeHeap struct {
	ids  []int   // heap array of node ids
	keys []int64 // keys[k] is the key of ids[k]
	idx  []int32 // node id -> index in ids, -1 when absent
	rank []int32 // optional sibling-order tie-break; nil falls back to ids
}

func (h *NodeHeap) len() int { return len(h.ids) }

// grow extends the id index to cover ids in [0, n).
func (h *NodeHeap) grow(n int) {
	old := len(h.idx)
	if n <= old {
		return
	}
	h.idx = slices.Grow(h.idx, n-old)[:n]
	for i := old; i < n; i++ {
		h.idx[i] = -1
	}
}

// reserve grows the id index's capacity to n ids.
func (h *NodeHeap) reserve(n int) {
	if n > cap(h.idx) {
		h.idx = slices.Grow(h.idx, n-len(h.idx))
	}
}

// clear empties the heap, resetting the index entries it used.
func (h *NodeHeap) clear() {
	for _, id := range h.ids {
		h.idx[id] = -1
	}
	h.ids = h.ids[:0]
	h.keys = h.keys[:0]
}

// Push inserts id with the given key. Pushing an id twice is a programming
// error and panics.
func (h *NodeHeap) Push(id int, key int64) {
	h.grow(id + 1)
	if h.idx[id] >= 0 {
		panic("memsim: node pushed twice")
	}
	h.ids = append(h.ids, id)
	h.keys = append(h.keys, key)
	h.idx[id] = int32(len(h.ids) - 1)
	h.up(len(h.ids) - 1)
}

// Peek returns the id with the minimum key, or -1 if empty.
func (h *NodeHeap) Peek() int {
	if len(h.ids) == 0 {
		return -1
	}
	return h.ids[0]
}

// Remove deletes id from the heap. Removing an absent id panics.
func (h *NodeHeap) Remove(id int) {
	if id >= len(h.idx) || h.idx[id] < 0 {
		panic("memsim: removing node not in heap")
	}
	i := int(h.idx[id])
	last := len(h.ids) - 1
	h.swap(i, last)
	h.ids = h.ids[:last]
	h.keys = h.keys[:last]
	h.idx[id] = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

// largest returns the id whose resident value is maximal (ties broken by
// smaller id). It scans the whole heap: only the ablation policies use it.
func (h *NodeHeap) largest(resident []int64) int {
	best, bestVal := -1, int64(-1)
	for _, id := range h.ids {
		v := resident[id]
		if v > bestVal || (v == bestVal && id < best) {
			best, bestVal = id, v
		}
	}
	return best
}

func (h *NodeHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.idx[h.ids[i]] = int32(i)
	h.idx[h.ids[j]] = int32(j)
}

func (h *NodeHeap) less(i, j int) bool {
	if h.keys[i] != h.keys[j] {
		return h.keys[i] < h.keys[j]
	}
	if h.rank != nil {
		// Equal keys mean equal parent positions, i.e. siblings; their
		// child-list ranks are distinct and reproduce the id order an
		// extracted copy of the subtree would have.
		if ri, rj := h.rank[h.ids[i]], h.rank[h.ids[j]]; ri != rj {
			return ri < rj
		}
	}
	return h.ids[i] < h.ids[j] // deterministic tie-break
}

func (h *NodeHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *NodeHeap) down(i int) {
	n := len(h.ids)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}
