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

// line is one cache-array entry, 8 bytes: the line address with the MESI
// state in its two low bits and the dirty flag in the next one. Lines are at
// least 8 bytes (config.Validate), so a line address leaves those three bits
// clear. An Invalid line is the zero value, and a valid one is never zero.
type line struct {
	tag uint64
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

// Array is a set-associative cache array with LRU replacement. Tags are full
// line addresses shifted by the line-offset bits; the array stores no data
// (values live in the hierarchy's memory image, read at memory-order
// insertion points).
//
// Each set keeps its valid lines first, most recently used first: a hit in
// Lookup or Insert moves the line to way 0, removing a line closes the gap,
// and a full set's LRU victim is its last way (DESIGN.md §6 item 9). A walk
// stops at the first empty way.
type Array struct {
	sets      pages[line]
	setMask   uint64
	lineShift uint
	setBits   uint
	hashed    bool
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
// every line Invalid.
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

// Lookup returns the state of the line containing addr, making it the most
// recently used on a hit. It returns Invalid on miss.
func (a *Array) Lookup(lineAddr uint64) State {
	set := a.sets.set(a.setIndex(lineAddr))
	for i, l := range set {
		if l.holds(lineAddr) {
			copy(set[1:i+1], set[:i])
			set[0] = l
			return l.state()
		}
		if l.tag == 0 {
			break
		}
	}
	return Invalid
}

// Peek returns the state without touching LRU.
func (a *Array) Peek(lineAddr uint64) State {
	set := a.sets.set(a.setIndex(lineAddr))
	for _, l := range set {
		if l.holds(lineAddr) {
			return l.state()
		}
		if l.tag == 0 {
			break
		}
	}
	return Invalid
}

// SetState updates the state of a resident line in place; it is a no-op if
// the line is not resident. Setting Invalid removes the line.
func (a *Array) SetState(lineAddr uint64, s State) {
	set := a.sets.set(a.setIndex(lineAddr))
	for i := range set {
		if set[i].holds(lineAddr) {
			if s == Invalid {
				copy(set[i:], set[i+1:])
				set[len(set)-1] = line{}
				return
			}
			set[i].setState(s)
			return
		}
		if set[i].tag == 0 {
			return
		}
	}
}

// Absorb takes back a line evicted from the level above: it reports whether
// the line is resident and, when the evicted copy was dirty, marks it
// Modified, in one walk of the set. Like Peek and SetState it leaves
// recency alone, and it changes nothing when the line is absent.
func (a *Array) Absorb(lineAddr uint64, dirty bool) bool {
	set := a.sets.set(a.setIndex(lineAddr))
	for i := range set {
		if set[i].holds(lineAddr) {
			if dirty {
				set[i].setState(Modified)
			}
			return true
		}
		if set[i].tag == 0 {
			break
		}
	}
	return false
}

// Victim describes a line evicted by Insert.
type Victim struct {
	LineAddr uint64
	State    State
	Dirty    bool
}

// Insert makes lineAddr the most recently used line of its set, in state s
// (which must not be Invalid), evicting the LRU line if the set is full. It
// reports the victim, if any. Inserting over an already-resident line just
// updates its state. One pass shifts each line it passes down a way.
func (a *Array) Insert(lineAddr uint64, s State) (Victim, bool) {
	set := a.sets.alloc(a.setIndex(lineAddr))
	prev := line{tag: lineAddr}
	prev.setState(s)
	for i, l := range set {
		set[i] = prev
		if l.holds(lineAddr) {
			l.setState(s)
			set[0] = l
			return Victim{}, false
		}
		if l.tag == 0 {
			return Victim{}, false
		}
		prev = l
	}
	return Victim{LineAddr: prev.tag &^ flagBits, State: prev.state(), Dirty: prev.dirty()}, true
}

// Resident reports whether the line is present in any valid state.
func (a *Array) Resident(lineAddr uint64) bool { return a.Peek(lineAddr) != Invalid }
