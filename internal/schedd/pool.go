package schedd

import (
	"context"

	"repro/internal/core"
)

// enginePool is a fixed-size pool of core.Runners. A Runner is reusable
// but not concurrency-safe, and each carries engine scratch worth keeping
// warm (arena free lists, postorder buffers), so the server checks one out
// per admitted request instead of allocating per request. The pool size
// bounds engine concurrency independently of the byte budget: even if the
// budget would admit fifty tiny requests, at most cap(runners) expansions
// run at once.
type enginePool struct {
	runners chan *core.Runner
}

// newEnginePool builds a pool of n runners, each with the given Workers
// (warm-shard) setting.
func newEnginePool(n, workers int) *enginePool {
	p := &enginePool{runners: make(chan *core.Runner, n)}
	for i := 0; i < n; i++ {
		p.runners <- core.NewRunner(workers)
	}
	return p
}

// get checks a runner out, waiting until one frees up or ctx expires.
// Admission holds a budget lease at this point, so the wait is bounded by
// the in-flight requests ahead of us, not by the queue of unadmitted work.
func (p *enginePool) get(ctx context.Context) (*core.Runner, error) {
	select {
	case rn := <-p.runners:
		return rn, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// put returns a runner to the pool, clearing the per-request settings so
// a leaked context or checkpoint path can never bleed into the next
// tenant's run. The Workers setting and engine scratch persist.
func (p *enginePool) put(rn *core.Runner) {
	rn.CacheBudget = 0
	rn.Ctx = nil
	rn.CheckpointPath = ""
	rn.CheckpointInterval = 0
	rn.ResumeFrom = ""
	p.runners <- rn
}
