package mem

// pageBits is log2 of the sets one page holds.
const pageBits = 4

// pages holds the sets of a set-associative structure (a cache array or the
// directory) in fixed-size pages of 1<<pageBits sets each. A page is
// allocated on the first insert into one of its sets, so building a machine
// costs what its program touches rather than what the configured caches
// could hold. A set whose page was never allocated reads as nil: every
// lookup finds nothing in it, exactly as in a set of zero values, because a
// zero line is Invalid and a zero directory entry is not valid.
type pages[T any] struct {
	p    [][]T
	ways int
	// used lists the allocated pages' indices, so that clear costs what
	// the runs touched rather than the size of the page index.
	used []int32
}

func newPages[T any](sets, ways int) pages[T] {
	return pages[T]{p: make([][]T, (sets+1<<pageBits-1)>>pageBits), ways: ways}
}

// set returns set idx, or nil when its page was never allocated.
func (s *pages[T]) set(idx uint64) []T {
	pg := s.p[idx>>pageBits]
	if pg == nil {
		return nil
	}
	off := int(idx&(1<<pageBits-1)) * s.ways
	return pg[off : off+s.ways : off+s.ways]
}

// clear zeroes every allocated page and keeps it. A zeroed set finds
// nothing, exactly as an unallocated one (DESIGN.md §6 item 6), so a
// cleared structure answers every lookup as a new one does.
func (s *pages[T]) clear() {
	for _, i := range s.used {
		clear(s.p[i])
	}
}

// alloc returns set idx, allocating its page on first use.
func (s *pages[T]) alloc(idx uint64) []T {
	if pg := idx >> pageBits; s.p[pg] == nil {
		s.p[pg] = make([]T, s.ways<<pageBits)
		s.used = append(s.used, int32(pg))
	}
	return s.set(idx)
}
