package liu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/randtree"
	"repro/internal/tree"
)

// collect drains an emission into a fresh slice.
func collect(c *ProfileCache, v int, release bool) []int {
	var out []int
	sink := func(seg []int) bool { out = append(out, seg...); return true }
	if release {
		c.EmitScheduleRelease(v, sink)
	} else {
		c.EmitSchedule(v, sink)
	}
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
			if got := collect(c, v, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: EmitSchedule(%d) diverges from AppendSchedule", trial, v)
			}
			if got := c.AppendSchedule(v, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: AppendSchedule(%d) collector diverges", trial, v)
			}
		}
	}
}

// TestEmitScheduleReleaseConsumes checks the releasing mode end to end on a
// budgeted cache: the stream matches the materialized schedule, the
// subtree's slices and rope pages are handed back (resident bytes drop to
// zero, StreamedNodes counts the whole tree), peaks stay served without
// rematerialization, and a later query rebuilds the identical profile.
func TestEmitScheduleReleaseConsumes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		tr := randtree.Synth(50+rng.Intn(300), rng)
		want := NewProfileCache(tr).AppendSchedule(tr.Root(), nil)
		c := NewProfileCacheOpts(tr, CacheOptions{MaxResidentBytes: 1 << 20})
		peak := c.Peak(tr.Root())
		if got := collect(c, tr.Root(), true); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: releasing emission diverges", trial)
		}
		st := c.Stats()
		if st.StreamedNodes != int64(tr.N()) {
			t.Fatalf("trial %d: streamed %d of %d nodes", trial, st.StreamedNodes, tr.N())
		}
		if st.ResidentBytes != 0 {
			t.Fatalf("trial %d: %d bytes still resident after releasing emission", trial, st.ResidentBytes)
		}
		remats := st.Rematerializations
		if got := c.Peak(tr.Root()); got != peak {
			t.Fatalf("trial %d: peak after release %d, want %d", trial, got, peak)
		}
		if c.Stats().Rematerializations != remats {
			t.Fatalf("trial %d: Peak after release rematerialized", trial)
		}
		if got := c.AppendSchedule(tr.Root(), nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: rematerialized schedule diverges", trial)
		}
	}
}

// TestEmitScheduleReleaseInterior exercises releasing below the root: after
// an invalidation dirties the root path, a clean subtree hanging off it can
// be stream-released (ancestors hold no profiles), while a subtree under a
// resident ancestor must degrade to the non-consuming walk.
func TestEmitScheduleReleaseInterior(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 20; trial++ {
		tr := randtree.Synth(80+rng.Intn(200), rng)
		// A non-root interior node with a non-trivial subtree.
		v := -1
		for x := 0; x < tr.N(); x++ {
			if tr.Parent(x) != tree.None && len(tr.Children(x)) > 0 {
				v = x
				break
			}
		}
		if v < 0 {
			continue
		}
		want := NewProfileCache(tr).AppendSchedule(v, nil)

		// Resident ancestors: releasing must degrade (nothing consumed).
		c := NewProfileCacheOpts(tr, CacheOptions{MaxResidentBytes: 1 << 30})
		c.Peak(tr.Root())
		if got := collect(c, v, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: degraded emission diverges", trial)
		}
		if st := c.Stats(); st.StreamedNodes != 0 {
			t.Fatalf("trial %d: released %d nodes under resident ancestors", trial, st.StreamedNodes)
		}
		if got := c.AppendSchedule(tr.Root(), nil); len(got) != tr.N() {
			t.Fatalf("trial %d: root schedule has %d of %d nodes after degraded emission", trial, len(got), tr.N())
		}

		// Dirty ancestors: releasing engages.
		c.Invalidate(tr.Parent(v))
		if !c.valid[v] {
			continue // v itself sat on the invalidated path
		}
		if got := collect(c, v, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: interior releasing emission diverges", trial)
		}
		if st := c.Stats(); st.StreamedNodes == 0 {
			t.Fatalf("trial %d: nothing released under dirty ancestors", trial)
		}
		// The whole cache must still converge to the reference afterwards.
		wantRoot := NewProfileCache(tr).AppendSchedule(tr.Root(), nil)
		if got := c.AppendSchedule(tr.Root(), nil); !reflect.DeepEqual(got, wantRoot) {
			t.Fatalf("trial %d: root schedule diverges after interior release", trial)
		}
	}
}

// TestEmitScheduleEarlyStop checks both modes under a consumer that stops
// mid-stream: the emitter reports the truncation, the cache survives, and a
// full re-emission still matches the reference.
func TestEmitScheduleEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		tr := randtree.Synth(100+rng.Intn(300), rng)
		want := NewProfileCache(tr).AppendSchedule(tr.Root(), nil)
		for _, release := range []bool{false, true} {
			c := NewProfileCacheOpts(tr, CacheOptions{MaxResidentBytes: 1 << 20})
			var got []int
			stop := 1 + rng.Intn(len(want))
			sink := func(seg []int) bool {
				got = append(got, seg...)
				return len(got) < stop
			}
			var full bool
			if release {
				full = c.EmitScheduleRelease(tr.Root(), sink)
			} else {
				full = c.EmitSchedule(tr.Root(), sink)
			}
			if full && len(got) < len(want) {
				t.Fatalf("trial %d release=%v: truncated emission reported as full", trial, release)
			}
			if !reflect.DeepEqual(got, want[:len(got)]) {
				t.Fatalf("trial %d release=%v: emitted prefix diverges", trial, release)
			}
			if got := c.AppendSchedule(tr.Root(), nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d release=%v: re-emission after early stop diverges", trial, release)
			}
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
// sharded EnsureParallel, in releasing mode. While another iterator still
// pins a subtree, releasing must degrade to the non-consuming walk; once
// that pin lifts it must engage. Both emissions must equal a sequentially
// warmed cache's schedule. Run under -race in CI.
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
	if got := collect(c, tr.Root(), true); !reflect.DeepEqual(got, want) {
		t.Fatal("emission next to an open iterator diverges")
	}
	if st := c.Stats(); st.StreamedNodes != 0 {
		t.Fatalf("released %d nodes while a subtree was pinned", st.StreamedNodes)
	}
	it.Close()
	if got := collect(c, tr.Root(), true); !reflect.DeepEqual(got, want) {
		t.Fatal("releasing emission of the parallel-warmed cache diverges")
	}
	if st := c.Stats(); st.StreamedNodes == 0 {
		t.Fatal("releasing emission consumed nothing once the pin lifted")
	}
}
