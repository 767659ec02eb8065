package schedd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// The request journal behind idempotent resumable serving (DESIGN.md
// §2.13). A client-supplied idempotency key binds to one durable Entry:
// the instance fingerprint the key was first used with, the stable
// checkpoint path of that request's engine run, and the committed
// emitted-id count. A re-POST with the same key and a matching fingerprint
// may resume — the engine continues from the checkpoint and the emission
// is skipped past the client's verified prefix — while a key reused for a
// DIFFERENT instance is a conflict (409): silently serving instance B
// under a key that once meant instance A is how retried requests corrupt
// downstream pipelines.
//
// Entries are one file each (key-<fnv64>.journal in the journal
// directory), written atomically (temp+fsync+rename) and framed with a
// CRC so a torn or bit-rotted entry is detected on read, dropped, and
// recomputed from scratch — journal damage degrades to extra work, never
// to a wrong stream or a panic. With no directory configured the journal
// is memory-only: conflict detection and single-flight still hold within
// one daemon process, durability across restarts does not.

// journalMagic leads every serialized entry; the hex CRC32 of the JSON
// body follows on the same line.
const journalMagic = "RXJRNL1"

// ErrJournalCorrupt marks a journal entry whose bytes fail validation
// (bad magic, CRC mismatch, malformed JSON). Callers treat it as "no
// entry": the request is recomputed and the entry rewritten.
var ErrJournalCorrupt = errors.New("schedd: corrupt journal entry")

// ErrKeyConflict is returned when an idempotency key is reused with a
// different instance fingerprint (tree, bound or algorithm) than the one
// it is bound to — the 409 path of the server.
var ErrKeyConflict = errors.New("schedd: idempotency key bound to a different request")

// ReqFingerprint identifies what an idempotency key is bound to: the
// instance (tree hash + node count), the resolved memory bound, and the
// algorithm. Non-semantic knobs (cache budget, timeouts, wait policy)
// are deliberately absent — they never change the served bytes,
// so a retry may lower its wait or budget without losing its binding.
type ReqFingerprint struct {
	// TreeHash is ckpt.HashTree over the instance's parent/weight vectors.
	TreeHash uint64 `json:"tree_hash"`
	// N is the node count (redundant with the hash, kept for diagnostics).
	N int64 `json:"n"`
	// M is the RESOLVED memory bound (mid requests resolve before binding).
	M int64 `json:"m"`
	// Algorithm is the resolved algorithm name.
	Algorithm string `json:"algorithm"`
}

// Entry is one journal record: the state of an idempotent request.
type Entry struct {
	// Key is the client-supplied idempotency key.
	Key string `json:"key"`
	// FP is the fingerprint the key is bound to.
	FP ReqFingerprint `json:"fp"`
	// CkptPath is the stable engine checkpoint path of this request ("" for
	// closed-form algorithms or checkpoint-less servers). Every attempt of
	// the key shares it, so a drained attempt's progress carries over.
	CkptPath string `json:"ckpt_path,omitempty"`
	// Committed is the emitted-id count as of the last completed or sealed
	// attempt (absolute, including any resumed prefix). Advisory for
	// diagnostics and resume validation; the emission is deterministic, so
	// correctness never depends on it.
	Committed int64 `json:"committed"`
	// Complete records that some attempt streamed the schedule to its end
	// trailer; Committed is then the schedule's total id count.
	Complete bool `json:"complete"`
}

// JournalStats counts journal outcomes since construction.
type JournalStats struct {
	// Begun counts bindings opened; Reused counts those that found an
	// existing entry for their key (a retry or duplicate).
	Begun, Reused int64
	// Conflicts counts key reuses with a mismatched fingerprint (409s);
	// Corrupt counts entries dropped for failing validation.
	Conflicts, Corrupt int64
}

// Journal tracks idempotency-key bindings. Per-key access is
// single-flight: Begin blocks while another request holds the same key,
// so two clients sharing a key serialize into one computation and two
// byte-identical streams. Safe for concurrent use.
type Journal struct {
	dir string // "" = memory-only

	mu    sync.Mutex
	locks map[string]chan struct{} // per-key single-flight (cap-1 channel)
	mem   map[string]*Entry        // memory-only store when dir == ""
	stats JournalStats
}

// NewJournal opens a journal over dir; an empty dir means memory-only.
// The directory is created if missing.
func NewJournal(dir string) (*Journal, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("schedd: creating journal dir: %w", err)
		}
	}
	return &Journal{
		dir:   dir,
		locks: make(map[string]chan struct{}),
		mem:   make(map[string]*Entry),
	}, nil
}

// Stats returns a snapshot of the journal counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// keyHash names a key's files without trusting its bytes (keys are
// client-supplied; the filename must not be).
func keyHash(key string) string {
	h := fnv.New64a()
	io.WriteString(h, key)
	return fmt.Sprintf("%016x", h.Sum64())
}

// entryPath is the journal file of a key; CkptPathFor the stable engine
// checkpoint path requests bound to the key share across attempts.
func (j *Journal) entryPath(key string) string {
	return filepath.Join(j.dir, "key-"+keyHash(key)+".journal")
}

// CkptPathFor returns the stable checkpoint path for a key under dir, or
// "" when the journal is memory-only (no durable directory to keep it in).
func (j *Journal) CkptPathFor(key string) string {
	if j.dir == "" {
		return ""
	}
	return filepath.Join(j.dir, "key-"+keyHash(key)+".ckpt")
}

// Binding is one open claim on a key: the caller holds the key's
// single-flight lock until Close. Entry is the existing record (nil for a
// first use).
type Binding struct {
	j   *Journal
	key string
	// Entry is the journal record found at Begin time; nil when the key
	// was unbound (first use, or its previous entry was corrupt).
	Entry *Entry
}

// Begin claims key for one request: it takes the key's single-flight lock
// (waiting for a concurrent holder, bounded by ctx), loads the existing
// entry if any, and verifies the fingerprint binding. A corrupt entry is
// dropped and counted; a fingerprint mismatch releases the lock and
// returns ErrKeyConflict.
func (j *Journal) Begin(ctx context.Context, key string, fp ReqFingerprint) (*Binding, error) {
	lock := j.lockFor(key)
	select {
	case lock <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("schedd: waiting for idempotency key %q: %w", key, ctx.Err())
	}
	b := &Binding{j: j, key: key}
	ent, err := j.load(key)
	switch {
	case err == nil && ent != nil:
		if ent.FP != fp {
			j.mu.Lock()
			j.stats.Begun++
			j.stats.Conflicts++
			j.mu.Unlock()
			b.Close()
			return nil, fmt.Errorf("%w: key %q is bound to fingerprint %+v, request has %+v",
				ErrKeyConflict, key, ent.FP, fp)
		}
		b.Entry = ent
		j.mu.Lock()
		j.stats.Begun++
		j.stats.Reused++
		j.mu.Unlock()
	case errors.Is(err, ErrJournalCorrupt):
		// Damage degrades to a fresh computation: drop the bad entry so
		// the rewrite below starts clean.
		j.drop(key)
		j.mu.Lock()
		j.stats.Begun++
		j.stats.Corrupt++
		j.mu.Unlock()
	case err != nil:
		b.Close()
		return nil, err
	default:
		j.mu.Lock()
		j.stats.Begun++
		j.mu.Unlock()
	}
	return b, nil
}

// Commit durably records the binding's current state (creating the entry
// on first use). Called with the lock held, before streaming begins (so a
// kill leaves the binding) and again with the final counts.
func (b *Binding) Commit(ent *Entry) error {
	ent.Key = b.key
	b.Entry = ent
	return b.j.store(b.key, ent)
}

// Close releases the key's single-flight lock. Idempotent per Binding is
// NOT needed — the server's defer calls it exactly once.
func (b *Binding) Close() {
	b.j.mu.Lock()
	lock := b.j.locks[b.key]
	b.j.mu.Unlock()
	<-lock
}

// lockFor returns the key's cap-1 lock channel, creating it on first use.
// Lock channels are never deleted: a key's lifetime of contention is
// bounded and the per-key footprint is one empty channel.
func (j *Journal) lockFor(key string) chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	lock, ok := j.locks[key]
	if !ok {
		lock = make(chan struct{}, 1)
		j.locks[key] = lock
	}
	return lock
}

// load reads a key's entry: (nil, nil) when absent, ErrJournalCorrupt
// when the bytes fail validation. Disk is the source of truth for durable
// journals — entries are re-read per Begin, so an external byte flip (or
// another daemon's write to a shared directory) is observed, not masked
// by a stale cache.
func (j *Journal) load(key string) (*Entry, error) {
	if j.dir == "" {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.mem[key], nil
	}
	data, err := os.ReadFile(j.entryPath(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("schedd: reading journal entry: %w", err)
	}
	ent, err := decodeEntry(data)
	if err != nil {
		return nil, err
	}
	if ent.Key != key {
		// A hash collision or a copied file: not this key's entry.
		return nil, fmt.Errorf("%w: entry holds key %q, file names %q", ErrJournalCorrupt, ent.Key, key)
	}
	return ent, nil
}

// store writes a key's entry atomically (or into the memory map).
func (j *Journal) store(key string, ent *Entry) error {
	if j.dir == "" {
		cp := *ent
		j.mu.Lock()
		j.mem[key] = &cp
		j.mu.Unlock()
		return nil
	}
	data, err := encodeEntry(ent)
	if err != nil {
		return err
	}
	return writeFileAtomic(j.entryPath(key), data)
}

// drop removes a key's entry (used for corrupt files; missing is fine).
func (j *Journal) drop(key string) {
	if j.dir == "" {
		j.mu.Lock()
		delete(j.mem, key)
		j.mu.Unlock()
		return
	}
	_ = os.Remove(j.entryPath(key))
}

// encodeEntry frames an entry: "RXJRNL1 <crc32hex>\n" + JSON body, the
// CRC over the body so any flipped byte — header or body — fails decode.
func encodeEntry(ent *Entry) ([]byte, error) {
	body, err := json.Marshal(ent)
	if err != nil {
		return nil, err
	}
	head := fmt.Sprintf("%s %08x\n", journalMagic, crc32.ChecksumIEEE(body))
	return append([]byte(head), body...), nil
}

// decodeEntry validates the frame and parses the entry. Every malformed
// input — short file, bad magic, CRC mismatch, broken JSON — surfaces as
// ErrJournalCorrupt, never a panic.
func decodeEntry(data []byte) (*Entry, error) {
	nl := -1
	for i, c := range data {
		if c == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, fmt.Errorf("%w: no header line", ErrJournalCorrupt)
	}
	head := string(data[:nl])
	rest, ok := strings.CutPrefix(head, journalMagic+" ")
	if !ok {
		return nil, fmt.Errorf("%w: bad magic", ErrJournalCorrupt)
	}
	var want uint32
	if _, err := fmt.Sscanf(rest, "%08x", &want); err != nil || len(rest) != 8 {
		return nil, fmt.Errorf("%w: bad checksum field", ErrJournalCorrupt)
	}
	body := data[nl+1:]
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrJournalCorrupt)
	}
	ent := &Entry{}
	if err := json.Unmarshal(body, ent); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrJournalCorrupt, err)
	}
	if ent.Committed < 0 || ent.Key == "" {
		return nil, fmt.Errorf("%w: implausible entry", ErrJournalCorrupt)
	}
	return ent, nil
}

// writeFileAtomic is ckpt.WriteFileAtomic for a byte slice, kept local so
// the journal's write path has no callback indirection.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
