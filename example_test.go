package repro_test

import (
	"fmt"
	"strings"

	"repro"
)

// The paper's Figure 2(b) instance: a unit root consuming two chains of
// output sizes 3, 5, 2, 6.
func fig2bTree() *repro.Tree {
	t, err := repro.NewTree(
		[]int{repro.None, 0, 1, 2, 3, 0, 5, 6, 7},
		[]int64{1, 3, 5, 2, 6, 3, 5, 2, 6},
	)
	if err != nil {
		panic(err)
	}
	return t
}

func ExampleSchedule() {
	t := fig2bTree()
	res, err := repro.Schedule(t, 6, repro.RecExpand)
	if err != nil {
		panic(err)
	}
	fmt.Println("I/O volume:", res.IO)
	// Output:
	// I/O volume: 3
}

// ExampleScheduleTuned shows the engine knobs behind the -workers and
// -cache-budget CLI flags (cmd/sched, cmd/minio-bench): sharding the
// initial profile warm and bounding the profile-cache memory never change
// the result — even a 1-byte budget (constant cache thrash) reproduces the
// exact I/O volume.
func ExampleScheduleTuned() {
	t := fig2bTree()
	plain, err := repro.Schedule(t, 6, repro.RecExpand)
	if err != nil {
		panic(err)
	}
	tuned, err := repro.ScheduleTuned(t, 6, repro.RecExpand, repro.Tuning{Workers: 2, CacheBudget: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(plain.IO, tuned.IO, plain.IO == tuned.IO)
	// Output:
	// 3 3 true
}

func ExampleScheduleStreamed() {
	t := fig2bTree()
	plain, err := repro.Schedule(t, 6, repro.RecExpand)
	if err != nil {
		panic(err)
	}
	// Stream the traversal to a writer instead of materializing it: the
	// segments concatenate to exactly plain.Schedule, and on huge trees
	// the n-word slice never exists (see DESIGN.md §2.8).
	var sb strings.Builder
	var streamed *repro.Result
	var serr error
	steps, err := repro.WriteSchedule(&sb, func(yield func(seg []int) bool) bool {
		streamed, serr = repro.ScheduleStreamed(t, 6, repro.RecExpand, repro.Tuning{CacheBudget: 1}, yield)
		return serr == nil
	})
	if serr != nil {
		panic(serr) // the engine's own error, not the writer's truncation notice
	}
	if err != nil {
		panic(err)
	}
	back, err := repro.ReadSchedule(strings.NewReader(sb.String()))
	if err != nil {
		panic(err)
	}
	fmt.Println(steps, streamed.IO == plain.IO, fmt.Sprint(back) == fmt.Sprint(plain.Schedule))
	// Output:
	// 9 true true
}

func ExampleMinMemory() {
	t := fig2bTree()
	fmt.Println(repro.MinMemory(t), repro.OptimalPeak(t))
	// Output:
	// 6 8
}

func ExampleIOVolume() {
	t := fig2bTree()
	// Process one chain entirely, then the other: 3 units of I/O.
	order := repro.TaskSchedule{4, 3, 2, 1, 8, 7, 6, 5, 0}
	io, err := repro.IOVolume(t, 6, order)
	if err != nil {
		panic(err)
	}
	fmt.Println(io)
	// Output:
	// 3
}

func ExampleBestPostorder() {
	t := fig2bTree()
	_, io := repro.BestPostorder(t, 6)
	fmt.Println(io)
	// Output:
	// 3
}

func ExampleScheduleForIO() {
	t := fig2bTree()
	// Prescribe 3 units of I/O on the first chain's top node; Theorem 2
	// constructs a schedule realizing it.
	tau := make([]int64, t.N())
	tau[1] = 3
	sched, err := repro.ScheduleForIO(t, 6, tau)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(sched) == t.N())
	// Output:
	// true
}

func ExampleExecute() {
	t := fig2bTree()
	sched, _ := repro.OptimalPeakSchedule(t)
	// Each task's output: its node id repeated over weight×unit bytes.
	f := func(node int, inputs map[int][]byte) ([]byte, error) {
		out := make([]byte, t.Weight(node)*8)
		for i := range out {
			out[i] = byte(node)
		}
		return out, nil
	}
	root, stats, err := repro.Execute(t, 6, sched, repro.ExecConfig{UnitSize: 8}, f)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(root), stats.UnitsWritten > 0)
	// Output:
	// 8 true
}
