package predictor

// StoreSet is the memory-dependence predictor of Chrysos & Emer (ISCA '98),
// the configuration in Table III. Loads and stores that have collided in the
// past are placed in a common store set; a load predicted dependent waits
// for the stores of its set instead of issuing speculatively.
//
// The implementation uses the two classic tables: the Store Set ID Table
// (SSIT), indexed by instruction PC, and the Last Fetched Store Table
// (LFST), indexed by store-set ID.
//
// The SSIT is allocated by the first TrainViolation. Until then SetOf finds
// no set without reading one, as a table of invalidSet entries answers.
type StoreSet struct {
	ssit   []uint32 // PC -> store-set ID + 1 (0 = no set)
	nextID uint32
}

const (
	ssitBits = 12
	// invalidSet marks an unassigned SSIT entry.
	invalidSet = 0
)

// NewStoreSet returns an empty predictor. It allocates no table.
func NewStoreSet() *StoreSet {
	s := new(StoreSet)
	s.Reset()
	return s
}

// Reset returns the predictor to the state NewStoreSet builds: no store set
// and the ID counter at 0. An allocated SSIT is kept, cleared; a cleared
// SSIT answers exactly as an unallocated one.
func (s *StoreSet) Reset() {
	*s = StoreSet{ssit: s.ssit}
	s.Clear()
}

func (s *StoreSet) index(pc uint64) uint64 {
	return (pc ^ pc>>ssitBits) & ((1 << ssitBits) - 1)
}

// SetOf returns the store-set ID assigned to pc and whether one exists.
func (s *StoreSet) SetOf(pc uint64) (uint32, bool) {
	if s.ssit == nil {
		return invalidSet, false
	}
	v := s.ssit[s.index(pc)]
	return v, v != invalidSet
}

// PredictDependent reports whether the load at loadPC should wait for the
// store at storePC: true when both are in the same store set.
func (s *StoreSet) PredictDependent(loadPC, storePC uint64) bool {
	ls, ok1 := s.SetOf(loadPC)
	ss, ok2 := s.SetOf(storePC)
	return ok1 && ok2 && ls == ss
}

// TrainViolation records a memory-order violation between the load at
// loadPC and the store at storePC: both are merged into a common store set,
// following the paper's assignment rules.
func (s *StoreSet) TrainViolation(loadPC, storePC uint64) {
	if s.ssit == nil {
		s.ssit = make([]uint32, 1<<ssitBits)
	}
	li, si := s.index(loadPC), s.index(storePC)
	lv, sv := s.ssit[li], s.ssit[si]
	switch {
	case lv == invalidSet && sv == invalidSet:
		s.nextID++
		if s.nextID == invalidSet {
			s.nextID++
		}
		s.ssit[li] = s.nextID
		s.ssit[si] = s.nextID
	case lv != invalidSet && sv == invalidSet:
		s.ssit[si] = lv
	case lv == invalidSet && sv != invalidSet:
		s.ssit[li] = sv
	default:
		// Both assigned: the one with the smaller ID wins (a
		// deterministic merge rule, as in the original paper).
		if lv < sv {
			s.ssit[si] = lv
		} else {
			s.ssit[li] = sv
		}
	}
}

// Clear invalidates all store sets (periodic clearing bounds the impact of
// aliasing; real implementations do this too).
func (s *StoreSet) Clear() {
	for i := range s.ssit {
		s.ssit[i] = invalidSet
	}
}
