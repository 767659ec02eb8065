package cert

import (
	"encoding/binary"
	"fmt"

	"repro/internal/oocexec"
	"repro/internal/tree"
)

// execUnit is the byte size of one weight unit in the certifying
// executions: one little-endian word tagging its node and unit index.
const execUnit = 8

func unitTag(node, unit int) uint64 { return uint64(node)<<32 | uint64(unit) }

// tagCompute fills every unit of a task's output with its node and unit
// index and checks each input unit for its child's tag, so an execution
// that loses, duplicates or reorders spilled bytes fails.
func tagCompute(t *tree.Tree) oocexec.Compute {
	return func(node int, inputs map[int][]byte) ([]byte, error) {
		for _, c := range t.Children(node) {
			in := inputs[c]
			if want := t.Weight(c) * execUnit; int64(len(in)) != want {
				return nil, fmt.Errorf("input %d has %d bytes, want %d", c, len(in), want)
			}
			for k := 0; k < len(in); k += execUnit {
				if got, want := binary.LittleEndian.Uint64(in[k:]), unitTag(c, k/execUnit); got != want {
					return nil, fmt.Errorf("input %d unit %d tagged %#x, want %#x", c, k/execUnit, got, want)
				}
			}
		}
		out := make([]byte, t.Weight(node)*execUnit)
		for k := 0; k < len(out); k += execUnit {
			binary.LittleEndian.PutUint64(out[k:], unitTag(node, k/execUnit))
		}
		return out, nil
	}
}

// executed runs sched for real through oocexec, spilling to a scratch
// file in spillDir (to memory when it is empty), and checks that the
// bytes it moves are the simulation's: it writes exactly simIO units,
// reads back all it wrote, and never holds more than M units. It returns
// the failed check's name and detail, or an empty name when all hold.
func executed(t *tree.Tree, M int64, sched tree.Schedule, simIO int64, spillDir string) (check, detail string) {
	cfg := oocexec.Config{UnitSize: execUnit, SpillDir: spillDir}
	_, st, err := oocexec.Execute(t, M, sched, cfg, tagCompute(t))
	switch {
	case err != nil:
		return "exec-error", err.Error()
	case st.UnitsWritten != simIO:
		return "exec-io", fmt.Sprintf("executor wrote %d units, simulated FiF I/O is %d", st.UnitsWritten, simIO)
	case st.UnitsRead != st.UnitsWritten:
		return "exec-reads", fmt.Sprintf("executor read back %d of the %d units it wrote", st.UnitsRead, st.UnitsWritten)
	case st.PeakResidentUnits > M:
		return "exec-peak", fmt.Sprintf("executor held %d units > M=%d", st.PeakResidentUnits, M)
	}
	return "", ""
}
