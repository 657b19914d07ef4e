// Package slab carves fixed-type records out of adaptively sized blocks, so
// a burst of sends costs one heap allocation per block instead of one per
// record. It is the idiom of core's per-node state arena applied to single
// records: blocks start small, so a lightly loaded node wastes little, and
// double up to a cap, so a busy node amortizes quickly without pinning
// large blocks.
//
// A Slab only hands records out; it never takes them back. Callers that
// recycle keep their own free lists and fall back to the slab when those
// are empty. A carved record keeps its whole block reachable, which is
// what lets modes that never recycle (rollback replay, checkpoint
// retention, duplicating faults) share the same allocator: a record stays
// intact for as long as anything points at it.
package slab

// Blocks double from minBlock up to maxBlock records. The cap is small on
// purpose: a 64-record block of 192-byte wire records is 12 KiB, a size
// the runtime packs two to a span. Blocks of whole pages (256 records
// is 48 KiB) die together after a burst and free long page runs, which the
// runtime returns to the operating system; the next burst then pays a page
// fault for every page it touches again, which costs more than the
// allocations the bigger block saves.
const (
	minBlock = 8
	maxBlock = 64
)

// Slab is a per-owner record allocator. The zero value is ready to use. It
// is not safe for concurrent use: each owner (a node, a lane) holds its own.
type Slab[T any] struct {
	free []T // the unused tail of the current block
	size int // length of the current block; the next one doubles it
}

// New returns a pointer to a zeroed record carved from the current block,
// starting a new block when it is used up.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.size = min(max(2*s.size, minBlock), maxBlock)
		s.free = make([]T, s.size)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}
