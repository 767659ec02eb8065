package liu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/randtree"
)

// collect drains an emission into a fresh slice.
func collect(c *ProfileCache, v int) []int {
	var out []int
	c.EmitSchedule(v, func(seg []int) bool { out = append(out, seg...); return true })
	return out
}

// TestEmitScheduleMatchesAppend pins the base contract of the streaming
// emitter: the concatenation of the yielded segments is exactly the
// AppendSchedule flatten, for every node of random trees, cold and warm,
// with and without a residency budget.
func TestEmitScheduleMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		tr := randtree.Synth(30+rng.Intn(400), rng)
		ref := NewProfileCache(tr)
		opts := CacheOptions{}
		if trial%2 == 1 {
			opts.MaxResidentBytes = 1 // constant thrash
		}
		c := NewProfileCacheOpts(tr, opts)
		for probe := 0; probe < 10; probe++ {
			v := rng.Intn(tr.N())
			want := ref.AppendSchedule(v, nil)
			if got := collect(c, v); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: EmitSchedule(%d) diverges from AppendSchedule", trial, v)
			}
			if got := c.AppendSchedule(v, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: AppendSchedule(%d) collector diverges", trial, v)
			}
		}
	}
}

// TestEmitScheduleEarlyStop checks a consumer that stops mid-stream: the
// emitter reports the truncation, the cache survives, and a full
// re-emission still matches the reference.
func TestEmitScheduleEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		tr := randtree.Synth(100+rng.Intn(300), rng)
		want := NewProfileCache(tr).AppendSchedule(tr.Root(), nil)
		c := NewProfileCacheOpts(tr, CacheOptions{MaxResidentBytes: 1 << 20})
		var got []int
		stop := 1 + rng.Intn(len(want))
		full := c.EmitSchedule(tr.Root(), func(seg []int) bool {
			got = append(got, seg...)
			return len(got) < stop
		})
		if full && len(got) < len(want) {
			t.Fatalf("trial %d: truncated emission reported as full", trial)
		}
		if !reflect.DeepEqual(got, want[:len(got)]) {
			t.Fatalf("trial %d: emitted prefix diverges", trial)
		}
		if got := c.AppendSchedule(tr.Root(), nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: re-emission after early stop diverges", trial)
		}
	}
}

// TestEmitSchedulePull exercises the pull-style iterator directly,
// including Close before exhaustion.
func TestEmitSchedulePull(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	tr := randtree.Synth(500, rng)
	want := NewProfileCache(tr).AppendSchedule(tr.Root(), nil)
	c := NewProfileCache(tr)
	var got []int
	it := c.ScheduleIter(tr.Root())
	for {
		seg, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, seg...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pull iteration diverges from AppendSchedule")
	}
	it = c.ScheduleIter(tr.Root())
	if _, ok := it.Next(); !ok {
		t.Fatal("fresh iterator exhausted immediately")
	}
	it.Close()
	if got := c.AppendSchedule(tr.Root(), nil); !reflect.DeepEqual(got, want) {
		t.Fatal("schedule diverges after early Close")
	}
}

// TestEmitWhileParallelWarm streams the final emission the way the
// expansion engine does on large trees: out of a cache warmed by the
// sharded EnsureParallel, next to another iterator that still pins a
// subtree, and again once that pin lifts. Both emissions must equal a
// sequentially warmed cache's schedule. Run under -race in CI.
func TestEmitWhileParallelWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tr := randtree.Synth(4000, rng)
	c := NewProfileCacheOpts(tr, CacheOptions{MaxResidentBytes: 1 << 30})
	c.EnsureParallel(tr.Root(), 4)
	want := NewProfileCache(tr).AppendSchedule(tr.Root(), nil)

	children := tr.Children(tr.Root())
	if len(children) == 0 {
		t.Skip("degenerate tree")
	}
	it := c.ScheduleIter(children[0])
	if got := collect(c, tr.Root()); !reflect.DeepEqual(got, want) {
		t.Fatal("emission next to an open iterator diverges")
	}
	it.Close()
	if got := collect(c, tr.Root()); !reflect.DeepEqual(got, want) {
		t.Fatal("emission of the parallel-warmed cache diverges")
	}
}
