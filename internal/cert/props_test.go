package cert

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"repro/internal/expand"
	"repro/internal/liu"
	"repro/internal/randtree"
	"repro/internal/tree"
)

// recursiveWeighted reproduces the random-recursive-tree half of the
// expand package's differential corpus: parent[i] uniform in [0, i),
// weights uniform in [1, 12].
func recursiveWeighted(n int, rng *rand.Rand) *tree.Tree {
	parent := make([]int, n)
	weight := make([]int64, n)
	parent[0] = tree.None
	weight[0] = 1 + rng.Int63n(12)
	for i := 1; i < n; i++ {
		parent[i] = rng.Intn(i)
		weight[i] = 1 + rng.Int63n(12)
	}
	return tree.MustNew(parent, weight)
}

// corpus220 rebuilds the exact 220-instance corpus of the engine's
// differential tests (same seed, same recipe, same I/O-bound filter).
func corpus220() []Instance {
	rng := rand.New(rand.NewSource(2024))
	var insts []Instance
	for trial := 0; len(insts) < 220; trial++ {
		var tr *tree.Tree
		if trial%3 == 0 {
			tr = randtree.Synth(20+rng.Intn(150), rng)
		} else {
			tr = recursiveWeighted(2+rng.Intn(60), rng)
		}
		lb := tr.MaxWBar()
		_, peak := liu.MinMem(tr)
		if peak <= lb {
			continue
		}
		M := lb + rng.Int63n(peak-lb)
		insts = append(insts, Instance{Family: "corpus", Seed: int64(trial), M: M, Tree: tr})
	}
	return insts
}

// TestProperties220Corpus runs the metamorphic suite over the 220-instance
// corpus, so the property wall and the bit-identity wall judge the same
// population.
func TestProperties220Corpus(t *testing.T) {
	corpus := corpus220()
	for _, inst := range corpus {
		if err := CheckProperties(context.Background(), inst); err != nil {
			t.Fatalf("corpus trial %d: %v", inst.Seed, err)
		}
	}
	if len(corpus) < 200 {
		t.Fatalf("only %d I/O-bound corpus instances, need >= 200", len(corpus))
	}
}

// TestFileStore220Corpus executes RecExpand's schedule of every corpus
// instance with oocexec's file spill store, under the same
// executed == simulated checks as the memory-store runs, and requires the
// spill directory to be empty after each execution.
func TestFileStore220Corpus(t *testing.T) {
	dir := t.TempDir()
	var spilled int64
	for _, inst := range corpus220() {
		res, err := expand.RecExpand(inst.Tree, inst.M, expand.Options{MaxPerNode: 2, Workers: 1})
		if err != nil {
			t.Fatalf("corpus trial %d: %v", inst.Seed, err)
		}
		if check, detail := executed(inst.Tree, inst.M, res.Schedule, res.SimulatedIO, dir); check != "" {
			t.Fatalf("corpus trial %d: %s: %s", inst.Seed, check, detail)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("corpus trial %d: spill dir holds %s after the execution", inst.Seed, entries[0].Name())
		}
		spilled += res.SimulatedIO
	}
	if spilled == 0 {
		t.Fatal("no corpus execution spilled")
	}
}

// TestPropertiesFreshInstances runs the metamorphic suite on 100 fresh
// generator-drawn instances spanning all three families.
func TestPropertiesFreshInstances(t *testing.T) {
	checked := 0
	for seed := int64(10_000); checked < 100; seed++ {
		fam := Families[int(seed)%len(Families)]
		inst, err := GenMedium(fam, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckProperties(context.Background(), inst); err != nil {
			if IsSkip(err) {
				continue
			}
			t.Fatalf("seed %d family %s: %v", seed, fam, err)
		}
		checked++
	}
}
