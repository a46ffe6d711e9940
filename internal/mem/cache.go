// Package mem implements the memory hierarchy of Table III: private L1D and
// L2 caches per core, a shared banked L3, and a sparse directory running an
// invalidation-based MESI protocol that is write-atomic — a store is
// acknowledged only after all invalidations have been performed (Section
// II-E), which is the assumption under which Processor Consistency behaviours
// cannot arise.
package mem

import (
	"fmt"

	"sesa/internal/config"
)

// State is a MESI cache-line state.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

var stateNames = [...]string{"I", "S", "E", "M"}

// String returns the one-letter MESI name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// line is one cache-array entry, 16 bytes. tag packs the line address with
// the MESI state in its two low bits and the dirty flag in the next one:
// lines are at least 8 bytes (config.Validate), so a line address leaves
// those three bits clear. An Invalid line is the zero value.
type line struct {
	tag uint64
	// lru is a monotonically increasing use stamp; the smallest stamp in
	// a set is the LRU victim.
	lru uint64
}

// The low bits of line.tag.
const (
	stateBits = 3 // the MESI state
	dirtyBit  = 4 // the line was written while resident
	flagBits  = stateBits | dirtyBit
)

func (l *line) state() State { return State(l.tag & stateBits) }

func (l *line) dirty() bool { return l.tag&dirtyBit != 0 }

// holds reports whether the line is valid and caches lineAddr.
func (l *line) holds(lineAddr uint64) bool {
	x := l.tag ^ lineAddr
	return x <= flagBits && x&stateBits != 0
}

// setState changes a resident line's state; entering Modified marks it
// dirty, and the mark stays until the line leaves.
func (l *line) setState(s State) {
	l.tag = l.tag&^stateBits | uint64(s)
	if s == Modified {
		l.tag |= dirtyBit
	}
}

// newLine is a line freshly filled with lineAddr in state s.
func newLine(lineAddr uint64, s State, lru uint64) line {
	l := line{tag: lineAddr, lru: lru}
	l.setState(s)
	return l
}

// Array is a set-associative cache array with LRU replacement. Tags are full
// line addresses shifted by the line-offset bits; the array stores no data
// (values live in the hierarchy's memory image, read at memory-order
// insertion points).
type Array struct {
	sets      pages[line]
	setMask   uint64
	lineShift uint
	setBits   uint
	hashed    bool
	stamp     uint64
}

// NewArray builds an array from the cache geometry, with straight set
// indexing as in L1/L2 caches.
func NewArray(c config.Cache) *Array {
	sets := c.Sets()
	return &Array{
		sets:      newPages[line](sets, c.Ways),
		setMask:   uint64(sets - 1),
		lineShift: log2(uint64(c.LineBytes)),
		setBits:   log2(uint64(sets)),
	}
}

// reset empties the array, keeping its geometry and its allocated pages:
// every line Invalid and the LRU stamp back at 0.
func (a *Array) reset() {
	*a = Array{sets: a.sets, setMask: a.setMask, lineShift: a.lineShift, setBits: a.setBits, hashed: a.hashed}
	a.sets.clear()
}

// NewHashedArray builds an array whose set index folds in higher address
// bits, as shared LLCs do, so that large power-of-two-spaced regions do not
// alias into the same sets.
func NewHashedArray(c config.Cache) *Array {
	a := NewArray(c)
	a.hashed = true
	return a
}

func log2(v uint64) uint {
	var s uint
	for (1 << s) < v {
		s++
	}
	return s
}

// LineAddr returns the line-aligned address containing addr.
func (a *Array) LineAddr(addr uint64) uint64 {
	return addr &^ ((1 << a.lineShift) - 1)
}

func (a *Array) setIndex(lineAddr uint64) uint64 {
	idx := lineAddr >> a.lineShift
	if a.hashed {
		idx = hashIndex(idx, a.setBits)
	}
	return idx & a.setMask
}

// hashIndex XOR-folds the line-number bits above the set index into it.
func hashIndex(lineNum uint64, setBits uint) uint64 {
	if setBits == 0 {
		return 0
	}
	h := lineNum
	for v := lineNum >> setBits; v != 0; v >>= setBits {
		h ^= v
	}
	return h
}

// Lookup returns the state of the line containing addr, touching LRU on hit.
// It returns Invalid on miss.
func (a *Array) Lookup(lineAddr uint64) State {
	set := a.sets.set(a.setIndex(lineAddr))
	for i := range set {
		if set[i].holds(lineAddr) {
			a.stamp++
			set[i].lru = a.stamp
			return set[i].state()
		}
	}
	return Invalid
}

// Peek returns the state without touching LRU.
func (a *Array) Peek(lineAddr uint64) State {
	set := a.sets.set(a.setIndex(lineAddr))
	for i := range set {
		if set[i].holds(lineAddr) {
			return set[i].state()
		}
	}
	return Invalid
}

// SetState updates the state of a resident line; it is a no-op if the line
// is not resident. Setting Invalid removes the line.
func (a *Array) SetState(lineAddr uint64, s State) {
	set := a.sets.set(a.setIndex(lineAddr))
	for i := range set {
		if set[i].holds(lineAddr) {
			if s == Invalid {
				set[i] = line{}
				return
			}
			set[i].setState(s)
			return
		}
	}
}

// Victim describes a line evicted by Insert.
type Victim struct {
	LineAddr uint64
	State    State
	Dirty    bool
}

// Insert places lineAddr with state s, evicting the LRU way if the set is
// full. It reports the victim, if any. Inserting over an already-resident
// line just updates its state.
func (a *Array) Insert(lineAddr uint64, s State) (Victim, bool) {
	set := a.sets.alloc(a.setIndex(lineAddr))
	a.stamp++
	// Already resident: update in place.
	for i := range set {
		if set[i].holds(lineAddr) {
			set[i].setState(s)
			set[i].lru = a.stamp
			return Victim{}, false
		}
	}
	// Free way.
	for i := range set {
		if set[i].state() == Invalid {
			set[i] = newLine(lineAddr, s, a.stamp)
			return Victim{}, false
		}
	}
	// Evict LRU.
	vi := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	old := &set[vi]
	v := Victim{LineAddr: old.tag &^ flagBits, State: old.state(), Dirty: old.dirty()}
	*old = newLine(lineAddr, s, a.stamp)
	return v, true
}

// Resident reports whether the line is present in any valid state.
func (a *Array) Resident(lineAddr uint64) bool { return a.Peek(lineAddr) != Invalid }
