package oocexec

import (
	"errors"
	"fmt"
	"os"
)

// spillStore holds evicted data. Evictions cut suffixes off a node's
// buffer, so chunks for one node arrive in back-to-front order; read fills
// dst with them front-to-back (reverse write order) and discards them.
type spillStore interface {
	write(node int, data []byte) error
	read(node int, dst []byte) error
	cleanup() error
}

func newStore(dir string) (spillStore, error) {
	if dir == "" {
		return &memStore{chunks: map[int][][]byte{}}, nil
	}
	f, err := os.CreateTemp(dir, "oocspill-*")
	if err != nil {
		return nil, fmt.Errorf("oocexec: creating spill file: %w", err)
	}
	return &fileStore{f: f, extents: map[int][]extent{}}, nil
}

// memStore keeps chunks in memory; it is the default for tests and for
// callers who only want the accounting.
type memStore struct {
	chunks map[int][][]byte
}

func (s *memStore) write(node int, data []byte) error {
	cp := append([]byte(nil), data...)
	s.chunks[node] = append(s.chunks[node], cp)
	return nil
}

func (s *memStore) read(node int, dst []byte) error {
	cs := s.chunks[node]
	total := 0
	for _, c := range cs {
		total += len(c)
	}
	if err := checkFill(node, len(cs), total, len(dst)); err != nil {
		return err
	}
	off := 0
	for i := len(cs) - 1; i >= 0; i-- {
		off += copy(dst[off:], cs[i])
	}
	delete(s.chunks, node)
	return nil
}

func (s *memStore) cleanup() error {
	s.chunks = map[int][][]byte{}
	return nil
}

// fileStore writes every chunk to one scratch file at its end offset and
// records the chunk's extent. The data lives only as long as the run and
// is read back by the process that wrote it, through the page cache, so
// nothing is synced. When no node holds spilled data the end offset
// returns to 0, so the file never grows past the volume spilled since the
// store was last empty.
type fileStore struct {
	f       *os.File
	end     int64
	extents map[int][]extent // per node, in write order
}

type extent struct{ off, n int64 }

func (s *fileStore) write(node int, data []byte) error {
	if _, err := s.f.WriteAt(data, s.end); err != nil {
		return fmt.Errorf("oocexec: spilling node %d: %w", node, err)
	}
	s.extents[node] = append(s.extents[node], extent{s.end, int64(len(data))})
	s.end += int64(len(data))
	return nil
}

func (s *fileStore) read(node int, dst []byte) error {
	es := s.extents[node]
	var total int64
	for _, e := range es {
		total += e.n
	}
	if err := checkFill(node, len(es), int(total), len(dst)); err != nil {
		return err
	}
	off := int64(0)
	for i := len(es) - 1; i >= 0; i-- {
		if _, err := s.f.ReadAt(dst[off:off+es[i].n], es[i].off); err != nil {
			return fmt.Errorf("oocexec: reading back node %d: %w", node, err)
		}
		off += es[i].n
	}
	delete(s.extents, node)
	if len(s.extents) == 0 {
		s.end = 0
	}
	return nil
}

func (s *fileStore) cleanup() error {
	return errors.Join(s.f.Close(), os.Remove(s.f.Name()))
}

// checkFill rejects a read-back whose destination the node's spilled
// chunks would not fill exactly.
func checkFill(node, chunks, have, want int) error {
	if chunks == 0 {
		return fmt.Errorf("oocexec: nothing spilled for node %d", node)
	}
	if have != want {
		return fmt.Errorf("oocexec: node %d has %d bytes spilled, read-back wants %d", node, have, want)
	}
	return nil
}
