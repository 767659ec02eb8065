package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
)

// Version is the checkpoint format version this package writes and the
// only one it reads; a file written by a later version is rejected with
// ErrVersion (resume from an incompatible build must fail loudly, not
// replay a misparsed log).
const Version = 1

// The typed failures of ReadFile/Decode. ErrCorrupt covers every
// malformed-byte condition — bad magic, CRC mismatch, impossible length,
// truncated or trailing bytes, inconsistent cursor — so "flip one byte
// anywhere" is guaranteed to surface as errors.Is(err, ErrCorrupt).
// ErrVersion is reserved for a well-formed file whose declared format
// version this build does not speak.
var (
	// ErrCorrupt marks a checkpoint whose bytes fail validation.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint")
	// ErrVersion marks a well-formed checkpoint of an unsupported format
	// version.
	ErrVersion = errors.New("ckpt: unsupported checkpoint version")
)

// magic identifies a checkpoint header payload. It lives inside the
// CRC-protected header record, so a damaged magic reads as ErrCorrupt.
const magic = "RXCKPT"

// Record type tags (first payload byte of each record).
const (
	recHeader byte = 1
	recExps   byte = 2
	recCursor byte = 3
)

// maxExpsPerRecord chunks the decision log so no single record payload
// grows unbounded; smaller records also localize what one CRC protects.
const maxExpsPerRecord = 1 << 16

// Fingerprint identifies the instance and the semantic engine options a
// checkpoint belongs to. Resume refuses a checkpoint whose fingerprint
// does not match the live run byte-for-byte: replaying a decision log
// against a different tree, bound or victim policy would silently produce
// garbage. Non-semantic knobs (workers, cache budget, checkpoint interval)
// are deliberately absent — they never change the decisions, so a run may
// be checkpointed under one setting and resumed under another.
type Fingerprint struct {
	// TreeHash is HashTree of the instance's parent and weight vectors.
	TreeHash uint64
	// N is the node count (redundant with the hash, kept for diagnostics).
	N int64
	// M is the memory bound.
	M int64
	// MaxPerNode is the per-node expansion budget (0 = FULLRECEXPAND).
	MaxPerNode int64
	// Victim is the victim policy ordinal.
	Victim int64
	// GlobalCap is the EFFECTIVE global expansion cap (defaults resolved).
	GlobalCap int64
}

// Exp is one logged expansion decision: the victim in the run's
// mutable-tree id space and the amount it was expanded by. The id space is
// deterministic — ids are assigned in Expand-call order, which the log
// preserves — so replaying the log onto a fresh mutable copy of the tree
// reconstructs the exact expanded tree.
type Exp struct {
	// Victim is the expanded node's mutable-tree id.
	Victim int
	// Amount is the expansion amount (the victim's FiF I/O volume).
	Amount int64
}

// Phase says how far a checkpointed run had progressed.
type Phase uint8

const (
	// PhaseExpand: the expansion walk was still running; Cursor/CurIters
	// locate the frontier.
	PhaseExpand Phase = iota
	// PhaseFinish: every expansion decision is in the log and the run was
	// in (or past) the final evaluation/emission; resume skips the walk.
	PhaseFinish
)

// State is everything a checkpoint holds. See the package comment for
// what is deliberately excluded.
type State struct {
	// FP is the instance fingerprint the log belongs to.
	FP Fingerprint
	// Exps is the decision log: every expansion applied to the (shared)
	// mutable tree so far, in application order.
	Exps []Exp
	// Cursor is the index into the tree's natural postorder of the first
	// recursion node whose expansion loop is not yet complete; every
	// earlier node is fully processed by the log.
	Cursor int
	// CurIters is the number of completed loop iterations at the Cursor
	// node (each contributed one logged expansion); resume re-enters the
	// loop with this iteration count so MaxPerNode budgets stay exact.
	CurIters int
	// Phase is PhaseFinish once the expansion walk is complete.
	Phase Phase
	// CapHit records that the global expansion cap tripped (meaningful
	// once Phase == PhaseFinish; during the walk it is recomputed).
	CapHit bool
	// EmittedIDs counts the schedule ids the engine's finish had handed
	// to the consumer when the checkpoint was taken. Informational: resume
	// trusts the repaired output stream for the seek offset, since the
	// stream on disk may be ahead of (or behind) the last checkpoint.
	EmittedIDs int64
}

// HashTree fingerprints a tree's shape and weights (FNV-1a over the
// varint-encoded parent and weight vectors).
func HashTree(parents []int, weights []int64) uint64 {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(parents)))
	h.Write(buf[:n])
	for _, p := range parents {
		n = binary.PutVarint(buf[:], int64(p))
		h.Write(buf[:n])
	}
	for _, w := range weights {
		n = binary.PutVarint(buf[:], w)
		h.Write(buf[:n])
	}
	return h.Sum64()
}

// appendRecord frames one payload: length, CRC32, payload.
func appendRecord(dst, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Encode serializes st into the checkpoint wire format.
func Encode(st *State) []byte {
	var p []byte

	// Header record: magic, version, fingerprint.
	p = append(p, recHeader)
	p = append(p, magic...)
	p = binary.AppendUvarint(p, Version)
	p = binary.AppendUvarint(p, st.FP.TreeHash)
	p = binary.AppendVarint(p, st.FP.N)
	p = binary.AppendVarint(p, st.FP.M)
	p = binary.AppendVarint(p, st.FP.MaxPerNode)
	p = binary.AppendVarint(p, st.FP.Victim)
	p = binary.AppendVarint(p, st.FP.GlobalCap)
	out := appendRecord(nil, p)

	// Expansion-log records, chunked.
	for off := 0; off < len(st.Exps); off += maxExpsPerRecord {
		end := off + maxExpsPerRecord
		if end > len(st.Exps) {
			end = len(st.Exps)
		}
		p = p[:0]
		p = append(p, recExps)
		p = binary.AppendUvarint(p, uint64(end-off))
		for _, e := range st.Exps[off:end] {
			p = binary.AppendUvarint(p, uint64(e.Victim))
			p = binary.AppendUvarint(p, uint64(e.Amount))
		}
		out = appendRecord(out, p)
	}

	// Cursor record: the commit point, with the log length cross-check.
	p = p[:0]
	p = append(p, recCursor)
	p = append(p, byte(st.Phase))
	if st.CapHit {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	p = binary.AppendUvarint(p, uint64(st.Cursor))
	p = binary.AppendUvarint(p, uint64(st.CurIters))
	p = binary.AppendUvarint(p, uint64(st.EmittedIDs))
	p = binary.AppendUvarint(p, uint64(len(st.Exps)))
	return appendRecord(out, p)
}

// corrupt wraps a description in ErrCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// byteReader walks a payload with bounds-checked varint reads.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, corrupt("payload truncated")
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, corrupt("bad uvarint at payload offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, corrupt("bad varint at payload offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) done() bool { return r.off == len(r.b) }

// Decode parses a checkpoint produced by Encode, validating every
// record's CRC, the header magic and version, and the cursor record's
// log-length cross-check. All malformed inputs return ErrCorrupt-wrapped
// errors; a valid file of a different version returns ErrVersion.
func Decode(data []byte) (*State, error) {
	st := &State{}
	sawHeader, sawCursor := false, false
	for off := 0; off < len(data); {
		if len(data)-off < 8 {
			return nil, corrupt("trailing %d bytes are not a record", len(data)-off)
		}
		plen := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		off += 8
		if uint64(plen) > uint64(len(data)-off) {
			return nil, corrupt("record length %d exceeds remaining %d bytes", plen, len(data)-off)
		}
		payload := data[off : off+int(plen)]
		off += int(plen)
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, corrupt("record checksum mismatch")
		}
		if sawCursor {
			return nil, corrupt("record after the cursor record")
		}
		r := &byteReader{b: payload}
		tag, err := r.byte()
		if err != nil {
			return nil, err
		}
		switch tag {
		case recHeader:
			if sawHeader {
				return nil, corrupt("duplicate header record")
			}
			if err := decodeHeader(r, st); err != nil {
				return nil, err
			}
			sawHeader = true
		case recExps:
			if !sawHeader {
				return nil, corrupt("expansion record before header")
			}
			if err := decodeExps(r, st); err != nil {
				return nil, err
			}
		case recCursor:
			if !sawHeader {
				return nil, corrupt("cursor record before header")
			}
			if err := decodeCursor(r, st); err != nil {
				return nil, err
			}
			sawCursor = true
		default:
			return nil, corrupt("unknown record type %d", tag)
		}
		if !r.done() {
			return nil, corrupt("record type %d has %d trailing payload bytes", tag, len(payload)-r.off)
		}
	}
	if !sawHeader {
		return nil, corrupt("missing header record")
	}
	if !sawCursor {
		return nil, corrupt("missing cursor record")
	}
	return st, nil
}

// decodeHeader parses the header payload after its type tag.
func decodeHeader(r *byteReader, st *State) error {
	if len(r.b)-r.off < len(magic) || string(r.b[r.off:r.off+len(magic)]) != magic {
		return corrupt("bad magic")
	}
	r.off += len(magic)
	v, err := r.uvarint()
	if err != nil {
		return err
	}
	if v != Version {
		return fmt.Errorf("%w: file is version %d, this build reads %d", ErrVersion, v, Version)
	}
	if st.FP.TreeHash, err = r.uvarint(); err != nil {
		return err
	}
	for _, dst := range []*int64{&st.FP.N, &st.FP.M, &st.FP.MaxPerNode, &st.FP.Victim, &st.FP.GlobalCap} {
		if *dst, err = r.varint(); err != nil {
			return err
		}
	}
	if st.FP.N < 0 || st.FP.N > 1<<40 {
		return corrupt("implausible node count %d", st.FP.N)
	}
	return nil
}

// decodeExps parses one expansion-log chunk after its type tag.
func decodeExps(r *byteReader, st *State) error {
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	// Each logged expansion costs at least 2 payload bytes; anything
	// claiming more entries than bytes is lying about its length.
	if count > uint64(len(r.b)-r.off) {
		return corrupt("expansion record claims %d entries in %d bytes", count, len(r.b)-r.off)
	}
	for i := uint64(0); i < count; i++ {
		v, err := r.uvarint()
		if err != nil {
			return err
		}
		a, err := r.uvarint()
		if err != nil {
			return err
		}
		if v > 1<<40 || a == 0 || a > 1<<62 {
			return corrupt("implausible expansion (victim=%d amount=%d)", v, a)
		}
		st.Exps = append(st.Exps, Exp{Victim: int(v), Amount: int64(a)})
	}
	return nil
}

// decodeCursor parses the cursor payload after its type tag.
func decodeCursor(r *byteReader, st *State) error {
	ph, err := r.byte()
	if err != nil {
		return err
	}
	if ph > byte(PhaseFinish) {
		return corrupt("unknown phase %d", ph)
	}
	st.Phase = Phase(ph)
	hit, err := r.byte()
	if err != nil {
		return err
	}
	if hit > 1 {
		return corrupt("bad cap-hit flag %d", hit)
	}
	st.CapHit = hit == 1
	cur, err := r.uvarint()
	if err != nil {
		return err
	}
	iters, err := r.uvarint()
	if err != nil {
		return err
	}
	emitted, err := r.uvarint()
	if err != nil {
		return err
	}
	logLen, err := r.uvarint()
	if err != nil {
		return err
	}
	if cur > 1<<40 || iters > 1<<40 || emitted > 1<<62 {
		return corrupt("implausible cursor (cursor=%d iters=%d emitted=%d)", cur, iters, emitted)
	}
	if logLen != uint64(len(st.Exps)) {
		return corrupt("cursor claims %d logged expansions, file holds %d", logLen, len(st.Exps))
	}
	st.Cursor, st.CurIters, st.EmittedIDs = int(cur), int(iters), int64(emitted)
	return nil
}

// WriteFile durably replaces the checkpoint at path with st: the encoded
// bytes go to a temp file that is fsynced and atomically renamed over
// path, with the directory fsynced after the rename. A kill at ANY byte
// of this sequence leaves either the previous checkpoint or the new one
// at path, never a mixture. The CkptWrite and CkptRename fault points let
// the robustness harness fail the write mid-file and the rename step.
func WriteFile(path string, st *State) error {
	data := Encode(st)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if faultinject.Fire(faultinject.CkptWrite) {
		// Simulate a write failing partway: flush a prefix so the temp
		// file holds garbage, as a real ENOSPC/EIO would leave it.
		f.Write(data[:len(data)/2])
		f.Close()
		return faultinject.ErrCkptWrite
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
	if faultinject.Fire(faultinject.CkptRename) {
		return faultinject.ErrCkptRename
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// ReadFile loads and validates the checkpoint at path. A missing file
// surfaces as os.ErrNotExist (callers decide whether that means "start
// fresh" or "operator error"); malformed bytes surface as ErrCorrupt and
// format-version skew as ErrVersion.
func ReadFile(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Read loads and validates a checkpoint from a stream (Decode over
// io.ReadAll).
func Read(r io.Reader) (*State, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
