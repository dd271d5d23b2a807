// Package arena provides the slab allocator for the simulator's hot
// paths. The timing models allocate nothing per cycle by design; what
// remains is construction-time garbage (every machine.NewSource builds
// thousands of small slices for per-core queues and per-vault state). A
// Slab folds that into one backing allocation per subsystem.
package arena

// Slab is a typed bump allocator: one backing array handed out as
// full-capacity sub-slices. Sub-slices are never reclaimed individually —
// the slab exists to turn N small make() calls into one — so Take is the
// only operation. A Slab is not safe for concurrent use; give each owner
// (machine, core) its own.
type Slab[T any] struct {
	buf []T
	off int
}

// NewSlab returns a slab pre-sized for total elements. Taking more than
// total does not fail: the slab starts a fresh backing block, so a
// mis-estimated total costs an extra allocation, never correctness.
func NewSlab[T any](total int) *Slab[T] {
	return &Slab[T]{buf: make([]T, total)}
}

// Take returns a zeroed slice of length and capacity n carved from the
// slab. The capacity is clipped so appends past n cannot silently alias
// a neighbouring sub-slice.
func (s *Slab[T]) Take(n int) []T {
	if s.off+n > len(s.buf) {
		grow := len(s.buf)
		if grow < n {
			grow = n
		}
		s.buf = make([]T, grow)
		s.off = 0
	}
	v := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	return v
}
