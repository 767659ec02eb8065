// Quickstart: build a small task tree, ask how much memory it needs, then
// schedule it out-of-core with every algorithm of the paper and compare the
// I/O volumes.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	// The Figure 2(b) tree of the paper: a unit root consuming two
	// chains with output sizes 3, 5, 2, 6 (top-down).
	//
	//            root(1)
	//           /       \
	//         3           3
	//         |           |
	//         5           5
	//         |           |
	//         2           2
	//         |           |
	//         6           6
	parents := []int{repro.None, 0, 1, 2, 3, 0, 5, 6, 7}
	weights := []int64{1, 3, 5, 2, 6, 3, 5, 2, 6}
	t, err := repro.NewTree(parents, weights)
	if err != nil {
		log.Fatal(err)
	}

	lb := repro.MinMemory(t)     // cannot run at all below this
	peak := repro.OptimalPeak(t) // no I/O needed at or above this
	fmt.Printf("tree with %d tasks: minimum memory %d, in-core peak %d\n", t.N(), lb, peak)

	M := int64(6) // the paper's bound for this example
	fmt.Printf("scheduling with M = %d:\n", M)
	for _, alg := range []repro.Algorithm{
		repro.OptMinMem,
		repro.PostOrderMinIO,
		repro.RecExpand,
		repro.FullRecExpand,
	} {
		res, err := repro.Schedule(t, M, alg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s I/O volume %d  (performance %.3f)\n",
			alg, res.IO, res.Performance(M))
	}

	// Any topological order can be evaluated directly; Theorem 1 says
	// the Furthest-in-Future policy used by IOVolume is optimal for it.
	chainAfterChain := repro.TaskSchedule{4, 3, 2, 1, 8, 7, 6, 5, 0}
	io, err := repro.IOVolume(t, M, chainAfterChain)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hand-written chain-after-chain order: I/O volume %d (the optimum here)\n", io)

	// At scale, the engine has two knobs that trade wall-clock against
	// memory without ever changing the result — the same knobs the CLIs
	// expose as `sched -workers 8 -cache-budget 256MiB`:
	//   Workers      shards the engine's initial profile warm (the
	//                expansion walk itself stays sequential);
	//   CacheBudget  bounds the resident profile-cache bytes (10⁷-node
	//                trees schedule in a flat memory envelope).
	tuned, err := repro.ScheduleTuned(t, M, repro.RecExpand,
		repro.Tuning{Workers: 2, CacheBudget: 64 << 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuned engine (workers=2, cache budget 64MiB): I/O volume %d — identical\n", tuned.IO)

	// Beyond ~10⁸ tasks even the answer itself is too big to hold: stream
	// the traversal to a writer segment by segment instead (WriteSchedule
	// + ScheduleStreamed never build the n-word schedule; cmd/sched
	// exposes the same path as `-stream-sched file`).
	var sb strings.Builder
	var streamed *repro.Result
	var serr error
	steps, err := repro.WriteSchedule(&sb, func(yield func(seg []int) bool) bool {
		streamed, serr = repro.ScheduleStreamed(t, M, repro.RecExpand,
			repro.Tuning{CacheBudget: 64 << 20}, yield)
		return serr == nil
	})
	if serr != nil {
		log.Fatal(serr) // the engine's own error, not the writer's truncation notice
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed %d-step schedule (%d bytes on the wire): I/O volume %d — identical\n",
		steps, sb.Len(), streamed.IO)
}
