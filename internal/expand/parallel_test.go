package expand

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/liu"
	"repro/internal/randtree"
	"repro/internal/tree"
)

// TestRecExpandParallelDeterminism is the sharded warm's differential
// guarantee: across the same 220-instance corpus as
// TestRecExpandMatchesReference — all victim policies, per-node budgets
// and (occasionally tiny) global caps — the Result must be
// reflect.DeepEqual-identical for Workers ∈ {1, 2, 8}, and identical to
// the frozen reference engine. An explicit Workers > 1 shards the warm
// whatever the tree size, so every instance exercises it.
func TestRecExpandParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	tried := 0
	for trial := 0; tried < 220; trial++ {
		var tr *tree.Tree
		if trial%3 == 0 {
			tr = randtree.Synth(20+rng.Intn(150), rng)
		} else {
			tr = randomTree(2+rng.Intn(60), rng)
		}
		lb := tr.MaxWBar()
		_, peak := liu.MinMem(tr)
		if peak <= lb {
			continue
		}
		M := lb + rng.Int63n(peak-lb)
		opts := Options{
			MaxPerNode: []int{0, 1, 2, 5}[rng.Intn(4)],
			Victim:     []VictimPolicy{LatestParent, EarliestParent, LargestTau}[rng.Intn(3)],
		}
		if rng.Intn(8) == 0 {
			opts.GlobalCap = 1 + rng.Intn(4)
		}
		tried++
		opts.Workers = 1
		want, err := RecExpand(tr, M, opts)
		if err != nil {
			t.Fatalf("trial %d: sequential engine: %v", trial, err)
		}
		for _, workers := range []int{2, 8} {
			opts.Workers = workers
			got, err := RecExpand(tr, M, opts)
			if err != nil {
				t.Fatalf("trial %d: workers=%d: %v", trial, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: workers=%d diverges (opts=%+v M=%d n=%d)\nparallel:   %+v\nsequential: %+v",
					trial, workers, opts, M, tr.N(), got, want)
			}
		}
		opts.Workers = 0
		ref, err := ReferenceRecExpand(tr, M, opts)
		if err != nil {
			t.Fatalf("trial %d: reference engine: %v", trial, err)
		}
		if !reflect.DeepEqual(want, ref) {
			t.Fatalf("trial %d: sequential engine diverges from reference (opts=%+v M=%d)", trial, opts, M)
		}
	}
	if tried < 200 {
		t.Fatalf("only %d I/O-bound instances generated, need >= 200", tried)
	}
}

// TestRecExpandParallelCapCorpus crosses the sharded warm with a tripping
// global cap: with a cap in the interesting range (around the
// unconstrained expansion count), CapHit and the truncated expansion
// sequence must be identical for every worker count.
func TestRecExpandParallelCapCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tried := 0
	for tried < 120 {
		tr := randtree.Synth(30+rng.Intn(200), rng)
		lb := tr.MaxWBar()
		_, peak := liu.MinMem(tr)
		if peak <= lb {
			continue
		}
		tried++
		M := lb + rng.Int63n(peak-lb)
		free, err := RecExpand(tr, M, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		cap := 1 + rng.Intn(free.Expansions+2)
		opts := Options{GlobalCap: cap, Workers: 1}
		want, err := RecExpand(tr, M, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			opts.Workers = workers
			got, err := RecExpand(tr, M, opts)
			if err != nil {
				t.Fatalf("cap=%d workers=%d: %v", cap, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cap=%d workers=%d diverges: CapHit %v/%v, Expansions %d/%d",
					cap, workers, got.CapHit, want.CapHit, got.Expansions, want.Expansions)
			}
		}
	}
}

// TestRecExpandParallelWideForest runs the shape the sharded warm splits
// best — a root over many independent bushy, I/O-bound subtrees — and
// checks the result stays identical to the sequentially warmed engine.
func TestRecExpandParallelWideForest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := forestTree(8, 120, rng)
	lb := tr.MaxWBar()
	_, peak := liu.MinMem(tr)
	if peak <= lb {
		t.Fatal("forest instance is not I/O-bound")
	}
	M := (lb + peak) / 2
	want, err := RecExpand(tr, M, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RecExpand(tr, M, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("forest: sharded-warm result diverges from sequential")
	}
	if err := tree.Validate(tr, got.Schedule); err != nil {
		t.Fatalf("forest: invalid schedule: %v", err)
	}
}

// forestTree builds a small-weight root over k copies of one Synth
// subtree of m nodes — the forest-of-bushy-subtrees shape of the
// RecExpandParallel benchmarks. Using the same subtree k times gives every
// branch the same peak, so a bound between the subtree's LB and its peak
// makes all k branches overflow at once; a weight-1 buffer node between the root and each copy keeps the forest's
// peak driven by the subtree peaks rather than by the sum of the subtree
// outputs.
func forestTree(k, m int, rng *rand.Rand) *tree.Tree {
	sub := randtree.Synth(m, rng)
	parent := []int{tree.None}
	weight := []int64{1}
	for i := 0; i < k; i++ {
		buf := len(parent)
		parent = append(parent, 0)
		weight = append(weight, 1)
		off := len(parent)
		for v := 0; v < sub.N(); v++ {
			p := sub.Parent(v)
			if p == tree.None {
				parent = append(parent, buf)
			} else {
				parent = append(parent, p+off)
			}
			weight = append(weight, sub.Weight(v))
		}
	}
	return tree.MustNew(parent, weight)
}
