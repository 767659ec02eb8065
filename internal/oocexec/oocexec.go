// Package oocexec is the out-of-core execution engine: it takes a task
// tree, a memory bound and a schedule produced by any of the scheduling
// algorithms, and actually runs the computation with real byte buffers,
// paging data to a spill store (one scratch file in a directory, or memory
// for tests) exactly as the planner's Furthest-in-Future policy prescribes.
//
// The engine enforces the paper's model at byte granularity: one weight
// unit of a task's output is Config.UnitSize bytes; executing a task needs
// all children outputs materialized plus its own output buffer, within
// M·UnitSize bytes of resident data; evictions write the tail of the
// victim's buffer to the spill store and release that memory. Victims come
// from memsim's FiF heap, but the eviction loop and its accounting are the
// executor's own, so the volumes it reports on completion are an
// independent check of the planner's predicted τ.
package oocexec

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/tree"
)

// Compute produces the output data of a task from its children's outputs.
// The returned slice must be exactly Weight(node)·UnitSize bytes. Inputs
// are keyed by child node id and must not be retained: the executor
// reuses the map for later tasks.
type Compute func(node int, inputs map[int][]byte) ([]byte, error)

// Config tunes the executor.
type Config struct {
	// UnitSize is the number of bytes per weight unit (default 64).
	UnitSize int
	// SpillDir is the directory for the spill store, one scratch file
	// in this directory that Execute removes before it returns; empty
	// means an in-memory store (useful in tests and benchmarks).
	SpillDir string
}

// Stats reports the actual data movement of an execution.
type Stats struct {
	// UnitsWritten is the total volume written to the spill store in
	// weight units (the realized Σ τ).
	UnitsWritten int64
	// UnitsRead is the total volume read back (equal to UnitsWritten:
	// everything spilled is eventually consumed by a parent).
	UnitsRead int64
	// BytesWritten and BytesRead are the same volumes in bytes.
	BytesWritten, BytesRead int64
	// Spills and Reads count the store operations.
	Spills, Reads int
	// PeakResidentUnits is the maximum resident volume observed,
	// including the executing task's w̄.
	PeakResidentUnits int64
}

// Execute runs the tree under memory bound M (in units) following sched,
// evicting with the Furthest-in-Future policy. It returns the root's
// output and the realized data-movement statistics.
func Execute(t *tree.Tree, M int64, sched tree.Schedule, cfg Config, f Compute) ([]byte, Stats, error) {
	var stats Stats
	n := t.N()
	pos, err := sched.Positions(n)
	if err != nil {
		return nil, stats, err
	}
	if err := tree.Validate(t, sched); err != nil {
		return nil, stats, err
	}
	unit := int64(cfg.UnitSize)
	if unit <= 0 {
		unit = 64
	}
	store, err := newStore(cfg.SpillDir)
	if err != nil {
		return nil, stats, err
	}
	defer store.cleanup()

	// resident[i] holds the in-memory prefix of i's output; the spilled
	// suffix lives in the store.
	resident := make([][]byte, n)
	spilled := make([]int64, n) // units of i currently in the store
	var residentUnits int64
	// FiF: the heap's minimum is the output whose parent runs last.
	var h memsim.NodeHeap
	// One inputs map for the run; Compute may not retain it. A cleared
	// map keeps its capacity, so after a task wider than one map group
	// (8 entries) the next task starts afresh, or every later clear and
	// range would pay that task's degree.
	inputs := map[int][]byte{}

	for _, v := range sched {
		if len(inputs) > 8 {
			inputs = make(map[int][]byte, t.NumChildren(v))
		} else {
			clear(inputs)
		}
		// Materialize the children: read back any spilled suffixes.
		// The children's full sizes are accounted inside w̄(v), and
		// their resident parts leave the "other residents" pool now.
		for _, c := range t.Children(v) {
			buf := resident[c]
			residentUnits -= int64(len(buf)) / unit
			if len(buf) > 0 {
				h.Remove(c)
			}
			resident[c] = nil
			want := t.Weight(c) * unit
			if got := int64(len(buf)) + spilled[c]*unit; got != want {
				return nil, stats, fmt.Errorf("oocexec: child %d reassembled to %d bytes, want %d", c, got, want)
			}
			if spilled[c] > 0 {
				// One buffer per reloaded child: the resident prefix is
				// copied in and the store fills the spilled suffix.
				full := make([]byte, want)
				if err := store.read(c, full[copy(full, buf):]); err != nil {
					return nil, stats, err
				}
				buf = full
				stats.UnitsRead += spilled[c]
				stats.BytesRead += spilled[c] * unit
				stats.Reads++
				spilled[c] = 0
			}
			inputs[c] = buf
		}
		need := t.WBar(v)
		if need > M {
			return nil, stats, fmt.Errorf("oocexec: task %d needs w̄=%d > M=%d", v, need, M)
		}
		for residentUnits+need > M {
			victim := h.Peek()
			if victim < 0 {
				return nil, stats, fmt.Errorf("oocexec: memory overflow with nothing evictable")
			}
			take := min(residentUnits+need-M, int64(len(resident[victim]))/unit)
			cut := int64(len(resident[victim])) - take*unit
			if err := store.write(victim, resident[victim][cut:]); err != nil {
				return nil, stats, err
			}
			// Drop the spilled tail from memory: a reslice would keep the
			// whole output array reachable until the parent consumes it.
			if cut == 0 {
				resident[victim] = nil
				h.Remove(victim)
			} else {
				resident[victim] = append([]byte(nil), resident[victim][:cut]...)
			}
			spilled[victim] += take
			residentUnits -= take
			stats.UnitsWritten += take
			stats.BytesWritten += take * unit
			stats.Spills++
		}
		if peak := residentUnits + need; peak > stats.PeakResidentUnits {
			stats.PeakResidentUnits = peak
		}
		out, err := f(v, inputs)
		if err != nil {
			return nil, stats, fmt.Errorf("oocexec: task %d: %w", v, err)
		}
		if got, want := int64(len(out)), t.Weight(v)*unit; got != want {
			return nil, stats, fmt.Errorf("oocexec: task %d produced %d bytes, want %d", v, got, want)
		}
		if t.Parent(v) == tree.None {
			return out, stats, nil
		}
		resident[v] = out
		residentUnits += t.Weight(v)
		if t.Weight(v) > 0 {
			h.Push(v, -int64(pos[t.Parent(v)]))
		}
	}
	return nil, stats, fmt.Errorf("oocexec: schedule ended without executing the root")
}
