package expand

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/liu"
	"repro/internal/randtree"
	"repro/internal/tree"
)

// ckptCase is one corpus instance of the kill-anywhere grid.
type ckptCase struct {
	tr   *tree.Tree
	M    int64
	opts Options
}

// ckptCorpus mirrors the differential corpus shape (random + synthetic
// trees, all policies and budgets, occasional tiny global caps) at a size
// the resume-from-every-snapshot grid can afford.
func ckptCorpus(t *testing.T, n int, seed int64) []ckptCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var cases []ckptCase
	for trial := 0; len(cases) < n; trial++ {
		var tr *tree.Tree
		if trial%3 == 0 {
			tr = randtree.Synth(20+rng.Intn(120), rng)
		} else {
			tr = randomTree(2+rng.Intn(50), rng)
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
		cases = append(cases, ckptCase{tr: tr, M: M, opts: opts})
	}
	return cases
}

// captureCkpts runs one checkpoint-armed expansion with interval 1 and
// returns the byte snapshot of the checkpoint file after EVERY durable
// write — the full set of states a kill could leave behind — plus the
// run's Result. ckptAfterWrite is package state, so callers must not run
// in parallel.
func captureCkpts(t *testing.T, c ckptCase, workers int, dir string) (*Result, [][]byte) {
	t.Helper()
	path := filepath.Join(dir, "run.ckpt")
	var snaps [][]byte
	ckptAfterWrite = func(p string) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("snapshotting checkpoint: %v", err)
		}
		snaps = append(snaps, data)
	}
	defer func() { ckptAfterWrite = nil }()
	opts := c.opts
	opts.Workers = workers
	opts.Checkpoint = CheckpointOptions{Path: path, Interval: 1}
	res, err := RecExpand(c.tr, c.M, opts)
	if err != nil {
		t.Fatalf("armed run failed: %v", err)
	}
	return res, snaps
}

// TestCkptCursorIsPostorderIndex pins every cursor a checkpoint-armed run
// commits to the natural-postorder index of the recursion node whose loop
// made the logged expansion. At interval 1 every expansion is written, so
// for each loop commit (the writes in PhaseExpand) the node at the cursor
// must be a recursion node (inner, initial subtree peak above M) and an
// ancestor of the victim just logged, the cursors must walk the postorder
// forward, and CurIters must count the node's expansions from 1. The
// finished walk commits the node count, and every later write is an
// emission commit of the finish: phase finish at cursor N, with a
// nondecreasing EmittedIDs that reaches N at the last write.
func TestCkptCursorIsPostorderIndex(t *testing.T) {
	for i, c := range ckptCorpus(t, 16, 29) {
		_, snaps := captureCkpts(t, c, 1, t.TempDir())
		states := make([]*ckpt.State, len(snaps))
		for k, data := range snaps {
			st, err := ckpt.Decode(data)
			if err != nil {
				t.Fatalf("case %d snapshot %d: %v", i, k, err)
			}
			states[k] = st
		}
		loop := 0
		for loop < len(states) && states[loop].Phase == ckpt.PhaseExpand {
			loop++
		}
		var emitted int64
		for k, st := range states[loop:] {
			if st.Phase != ckpt.PhaseFinish || st.Cursor != c.tr.N() {
				t.Fatalf("case %d write %d: phase %v cursor %d after the walk, want the finish at %d",
					i, loop+k, st.Phase, st.Cursor, c.tr.N())
			}
			if st.EmittedIDs < emitted {
				t.Fatalf("case %d write %d: EmittedIDs fell from %d to %d", i, loop+k, emitted, st.EmittedIDs)
			}
			emitted = st.EmittedIDs
		}
		if loop == len(states) || emitted != int64(c.tr.N()) {
			t.Fatalf("case %d: %d finish writes end with %d emitted ids, want %d",
				i, len(states)-loop, emitted, c.tr.N())
		}
		final := states[len(states)-1]
		m := NewMutable(c.tr)
		for _, e := range final.Exps {
			if _, _, err := m.Expand(e.Victim, e.Amount); err != nil {
				t.Fatalf("case %d: replaying the log: %v", i, err)
			}
		}
		post := c.tr.NaturalPostorder()
		peaks := liu.AllSubtreePeaks(c.tr)
		cursor, iters := 0, 0
		for k, st := range states[:loop] {
			if st.Cursor < 0 || st.Cursor >= len(post) {
				t.Fatalf("case %d write %d: loop cursor %d outside the postorder", i, k, st.Cursor)
			}
			r := post[st.Cursor]
			if c.tr.IsLeaf(r) || peaks[r] <= c.M {
				t.Fatalf("case %d write %d: cursor %d names node %d, not a recursion node", i, k, st.Cursor, r)
			}
			v := st.Exps[len(st.Exps)-1].Victim
			for v != tree.None && v != r {
				v = m.Parent(v)
			}
			if v != r {
				t.Fatalf("case %d write %d: node %d at cursor %d is no ancestor of the victim", i, k, r, st.Cursor)
			}
			switch {
			case st.Cursor == cursor && k > 0:
				iters++
			case st.Cursor > cursor || k == 0:
				cursor, iters = st.Cursor, 1
			default:
				t.Fatalf("case %d write %d: cursor moved back from %d to %d", i, k, cursor, st.Cursor)
			}
			if st.CurIters != iters {
				t.Fatalf("case %d write %d: CurIters %d, want %d", i, k, st.CurIters, iters)
			}
		}
	}
}

// TestCkptKillAnywhereResume is the tentpole's acceptance grid, engine
// level: for every instance of the corpus, run checkpoint-armed at
// interval 1, snapshot the checkpoint file after every durable write, and
// resume from EVERY snapshot — each resume must produce a Result
// bit-identical to the uninterrupted run. The snapshots are exactly the
// states a SIGKILL at an arbitrary instant can leave on disk (writes are
// atomic, so the file always holds the last completed write).
func TestCkptKillAnywhereResume(t *testing.T) {
	n := 24
	if testing.Short() {
		n = 8
	}
	cases := ckptCorpus(t, n, 2026)
	dir := t.TempDir()
	resumePath := filepath.Join(dir, "resume.ckpt")
	for ci, c := range cases {
		want, err := RecExpand(c.tr, c.M, c.opts)
		if err != nil {
			t.Fatalf("case %d: baseline: %v", ci, err)
		}
		_, snaps := captureCkpts(t, c, 1, t.TempDir())
		if len(snaps) == 0 {
			t.Fatalf("case %d: armed run wrote no checkpoints", ci)
		}
		for si, snap := range snaps {
			if err := os.WriteFile(resumePath, snap, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := c.opts
			opts.ResumeFrom = resumePath
			got, err := RecExpand(c.tr, c.M, opts)
			if err != nil {
				t.Fatalf("case %d snapshot %d/%d: resume: %v", ci, si, len(snaps), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d snapshot %d/%d: resumed Result diverges\nresumed:  %+v\nbaseline: %+v",
					ci, si, len(snaps), got, want)
			}
		}
	}
}

// TestCkptKillAnywhereResumeParallel is the same grid with the armed run
// and every resume warming its profiles in four shards (Workers=4): the
// warm's sharding must not leak into what a checkpoint records, so every
// state must resume to the bit-identical Result.
func TestCkptKillAnywhereResumeParallel(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 5
	}
	cases := ckptCorpus(t, n, 3033)
	dir := t.TempDir()
	resumePath := filepath.Join(dir, "resume.ckpt")
	for ci, c := range cases {
		want, err := RecExpand(c.tr, c.M, c.opts)
		if err != nil {
			t.Fatalf("case %d: baseline: %v", ci, err)
		}
		armedRes, snaps := captureCkpts(t, c, 4, t.TempDir())
		if !reflect.DeepEqual(armedRes, want) {
			t.Fatalf("case %d: armed sharded-warm run diverges from baseline", ci)
		}
		// Sample the snapshots when the run wrote many: every prefix state
		// is covered across the corpus anyway.
		stride := 1
		if len(snaps) > 40 {
			stride = len(snaps) / 40
		}
		for si := 0; si < len(snaps); si += stride {
			if err := os.WriteFile(resumePath, snaps[si], 0o644); err != nil {
				t.Fatal(err)
			}
			opts := c.opts
			opts.ResumeFrom = resumePath
			opts.Workers = 4
			got, err := RecExpand(c.tr, c.M, opts)
			if err != nil {
				t.Fatalf("case %d snapshot %d/%d: resume: %v", ci, si, len(snaps), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d snapshot %d/%d: resumed Result diverges\nresumed:  %+v\nbaseline: %+v",
					ci, si, len(snaps), got, want)
			}
		}
	}
}

// TestCkptResumeContinuesCheckpointing: a resumed run that is itself
// armed keeps writing checkpoints, and resuming from ITS final checkpoint
// still reproduces the Result (checkpoint-of-a-resume round trip).
func TestCkptResumeContinuesCheckpointing(t *testing.T) {
	cases := ckptCorpus(t, 4, 4711)
	for ci, c := range cases {
		want, err := RecExpand(c.tr, c.M, c.opts)
		if err != nil {
			t.Fatalf("case %d: baseline: %v", ci, err)
		}
		_, snaps := captureCkpts(t, c, 1, t.TempDir())
		mid := snaps[len(snaps)/2]
		dir := t.TempDir()
		resumePath := filepath.Join(dir, "mid.ckpt")
		contPath := filepath.Join(dir, "cont.ckpt")
		if err := os.WriteFile(resumePath, mid, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := c.opts
		opts.ResumeFrom = resumePath
		opts.Checkpoint = CheckpointOptions{Path: contPath, Interval: 1}
		got, err := RecExpand(c.tr, c.M, opts)
		if err != nil {
			t.Fatalf("case %d: armed resume: %v", ci, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: armed resume diverges", ci)
		}
		opts = c.opts
		opts.ResumeFrom = contPath
		got, err = RecExpand(c.tr, c.M, opts)
		if err != nil {
			t.Fatalf("case %d: resume of resume: %v", ci, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: resume of resume diverges", ci)
		}
	}
}

// TestCkptStreamResume pins the streaming side: a resumed
// RecExpandStream re-emits the id sequence of the uninterrupted run
// EXACTLY (the CLI seeks past the ids already on disk; the engine's
// contract is deterministic re-emission), with a bit-identical Result.
func TestCkptStreamResume(t *testing.T) {
	cases := ckptCorpus(t, 6, 5555)
	for ci, c := range cases {
		var wantIDs []int
		want, err := NewEngine().RecExpandStream(c.tr, c.M, c.opts, func(seg []int) bool {
			wantIDs = append(wantIDs, seg...)
			return true
		})
		if err != nil {
			t.Fatalf("case %d: baseline stream: %v", ci, err)
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "run.ckpt")
		opts := c.opts
		opts.Checkpoint = CheckpointOptions{Path: path, Interval: 1}
		if _, err := NewEngine().RecExpandStream(c.tr, c.M, opts, func(seg []int) bool { return true }); err != nil {
			t.Fatalf("case %d: armed stream: %v", ci, err)
		}
		// The final checkpoint is PhaseFinish with the emission counted.
		st, err := ckpt.ReadFile(path)
		if err != nil {
			t.Fatalf("case %d: reading final checkpoint: %v", ci, err)
		}
		if st.Phase != ckpt.PhaseFinish {
			t.Fatalf("case %d: final checkpoint phase = %v", ci, st.Phase)
		}
		if st.EmittedIDs != int64(len(wantIDs)) {
			t.Fatalf("case %d: checkpoint counts %d emitted ids, stream had %d", ci, st.EmittedIDs, len(wantIDs))
		}
		var gotIDs []int
		opts = c.opts
		opts.ResumeFrom = path
		got, err := NewEngine().RecExpandStream(c.tr, c.M, opts, func(seg []int) bool {
			gotIDs = append(gotIDs, seg...)
			return true
		})
		if err != nil {
			t.Fatalf("case %d: resumed stream: %v", ci, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: resumed stream Result diverges", ci)
		}
		if !reflect.DeepEqual(gotIDs, wantIDs) {
			t.Fatalf("case %d: resumed stream emits different ids", ci)
		}
	}
}

// TestResumeFingerprintMismatch: a checkpoint must be rejected with
// ErrCheckpointMismatch when any semantic parameter differs — tree, M,
// per-node budget, victim policy or effective global cap — and accepted
// when only non-semantic knobs (workers, cache budget, interval) differ.
func TestResumeFingerprintMismatch(t *testing.T) {
	c := ckptCorpus(t, 1, 99)[0]
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	opts := c.opts
	opts.Checkpoint = CheckpointOptions{Path: path, Interval: 1}
	want, err := RecExpand(c.tr, c.M, opts)
	if err != nil {
		t.Fatal(err)
	}

	reject := func(name string, tr *tree.Tree, M int64, o Options) {
		t.Helper()
		o.ResumeFrom = path
		if _, err := RecExpand(tr, M, o); !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("%s: err = %v, want ErrCheckpointMismatch", name, err)
		}
	}
	reject("different M", c.tr, c.M+1, c.opts)
	o := c.opts
	o.MaxPerNode++
	reject("different MaxPerNode", c.tr, c.M, o)
	o = c.opts
	o.Victim = (c.opts.Victim + 1) % 3
	reject("different Victim", c.tr, c.M, o)
	o = c.opts
	o.GlobalCap = 64*c.tr.N() + 1025 // one past the resolved default
	reject("different GlobalCap", c.tr, c.M, o)
	// A different tree with the same M: decrement one weight, which can
	// only lower MaxWBar, so the LB precondition still holds and the
	// rejection is attributable to the tree hash alone.
	weights := c.tr.Weights()
	for i, w := range weights {
		if w > 1 {
			weights[i]--
			reject("different tree", tree.MustNew(c.tr.Parents(), weights), c.M, c.opts)
			break
		}
	}

	// Non-semantic knobs may change freely.
	o = c.opts
	o.ResumeFrom = path
	o.Workers = 3
	o.CacheBudget = 1 << 20
	got, err := RecExpand(c.tr, c.M, o)
	if err != nil {
		t.Fatalf("resume with different tuning: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resume with different tuning diverges")
	}
}

// TestResumeBadFile: missing and corrupt checkpoint files surface their
// typed causes through RecExpand.
func TestResumeBadFile(t *testing.T) {
	c := ckptCorpus(t, 1, 7)[0]
	opts := c.opts
	opts.ResumeFrom = filepath.Join(t.TempDir(), "absent.ckpt")
	if _, err := RecExpand(c.tr, c.M, opts); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing checkpoint: err = %v, want os.ErrNotExist", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.ResumeFrom = bad
	if _, err := RecExpand(c.tr, c.M, opts); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("corrupt checkpoint: err = %v, want ckpt.ErrCorrupt", err)
	}
}

// TestCkptArmedMatchesDisarmed: arming checkpoints (any interval) never
// changes the Result, on both drivers.
func TestCkptArmedMatchesDisarmed(t *testing.T) {
	cases := ckptCorpus(t, 6, 808)
	for ci, c := range cases {
		want, err := RecExpand(c.tr, c.M, c.opts)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		for _, workers := range []int{1, 4} {
			for _, interval := range []int{1, 16, 0} {
				opts := c.opts
				opts.Workers = workers
				opts.Checkpoint = CheckpointOptions{
					Path:     filepath.Join(t.TempDir(), "run.ckpt"),
					Interval: interval,
				}
				got, err := RecExpand(c.tr, c.M, opts)
				if err != nil {
					t.Fatalf("case %d workers=%d interval=%d: %v", ci, workers, interval, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("case %d workers=%d interval=%d: armed Result diverges", ci, workers, interval)
				}
			}
		}
	}
}
