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
	return &fileStore{f: f, nodes: map[int][]int{}}, nil
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
// nothing is synced. The extents sit on a stack in write order: a read
// marks its node's extents dead and pops dead extents off the top, so the
// end offset is the end of the highest live extent (0 once no node holds
// spilled data) and the file never grows past the live data's span.
type fileStore struct {
	f     *os.File
	end   int64
	stack []extent      // extents not yet popped, in write order
	nodes map[int][]int // per node, its extents' stack indices in write order
}

type extent struct {
	off, n int64
	dead   bool
}

func (s *fileStore) write(node int, data []byte) error {
	if _, err := s.f.WriteAt(data, s.end); err != nil {
		return fmt.Errorf("oocexec: spilling node %d: %w", node, err)
	}
	s.nodes[node] = append(s.nodes[node], len(s.stack))
	s.stack = append(s.stack, extent{off: s.end, n: int64(len(data))})
	s.end += int64(len(data))
	return nil
}

func (s *fileStore) read(node int, dst []byte) error {
	idx := s.nodes[node]
	var total int64
	for _, k := range idx {
		total += s.stack[k].n
	}
	if err := checkFill(node, len(idx), int(total), len(dst)); err != nil {
		return err
	}
	off := int64(0)
	for i := len(idx) - 1; i >= 0; i-- {
		e := s.stack[idx[i]]
		if _, err := s.f.ReadAt(dst[off:off+e.n], e.off); err != nil {
			return fmt.Errorf("oocexec: reading back node %d: %w", node, err)
		}
		off += e.n
	}
	for _, k := range idx {
		s.stack[k].dead = true
	}
	delete(s.nodes, node)
	for len(s.stack) > 0 && s.stack[len(s.stack)-1].dead {
		s.stack = s.stack[:len(s.stack)-1]
	}
	s.end = 0
	if k := len(s.stack); k > 0 {
		s.end = s.stack[k-1].off + s.stack[k-1].n
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
