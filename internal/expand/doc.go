// Package expand implements the node-expansion technique of Section 5 of
// RR-9025 and the two heuristics built on it, FULLRECEXPAND and RECEXPAND,
// as well as the constructive proof of Theorem 2 (computing a schedule for
// a given I/O function).
//
// # The expansion model
//
// Expanding a node i under an I/O amount τ(i) replaces i by a chain
// i1 → i2 → i3 of weights w_i, w_i − τ(i), w_i: the three weights model the
// occupation of main memory when the data is produced, while part of it
// sits on disk, and when it has been read back for the parent. A tree
// whose optimal peak-memory traversal fits in M after a set of expansions
// yields a valid traversal of the original tree whose I/O volume is the
// sum of the expansion amounts.
//
// # Engines
//
// Two engines produce bit-identical Results (pinned by the differential
// tests against the 220-instance corpus):
//
//   - ReferenceRecExpand (reference.go) freezes the seed implementation:
//     extract every overflowing subtree, rerun MinMem and a fresh FiF
//     simulation per iteration. Quadratic on deep trees; kept as the
//     oracle.
//   - The incremental engine (recexpand.go, mutable.go) runs in place on a
//     MutableTree whose liu.ProfileCache memoizes every subtree's optimal
//     hill–valley profile, invalidating only the root path of each
//     expansion, with an allocation-free memsim.Simulator for the FiF
//     evaluations. Its walk is the sequential postorder of Algorithm 2;
//     the one parallel step is the initial profile warm, which
//     Options.Workers shards over disjoint subtrees
//     (liu.(*ProfileCache).EnsureParallel) with a cache state identical
//     to a sequential warm.
//
// # Memory bounding
//
// Options.CacheBudget bounds the resident bytes of every profile cache the
// engines create (liu.CacheOptions.MaxResidentBytes); evicted profiles are
// rematerialized on demand, so 10⁷-node trees schedule within a flat
// memory envelope at identical results. DESIGN.md documents the cache
// memory model, the eviction tiers and the measured envelopes.
//
// # Streaming emission
//
// (*Engine).RecExpandStream delivers the final original-tree schedule to a
// yield function segment by segment instead of materializing
// Result.Schedule, and (*Engine).RecExpand is that call plus a collector
// that appends the segments. The finish runs Algorithm 2's two closing FiF
// evaluations — the expanded tree's and the transposed schedule's on the
// original tree — in lockstep on two memsim.Simulators, over two plain
// walks of the expanded tree's emission: the first indexes both
// simulations, the second steps both and hands each primary segment to
// yield. tree.WriteSchedule writes such a stream to disk with O(segment)
// memory — the path that opens >10⁸-node trees (DESIGN.md §2.8). The
// streaming grids pin the streamed segments to ReferenceRecExpand's
// Schedule.
package expand
