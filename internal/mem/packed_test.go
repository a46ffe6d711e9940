package mem

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"sesa/internal/config"
)

// refLine is the cache line as it was before the state and dirty flag were
// packed into the tag: 24 bytes.
type refLine struct {
	tag   uint64
	state State
	dirty bool
	lru   uint64
}

// refArray is Array over refLine, its methods as they were before the
// packing and before sets kept recency order: LRU by stamp, a fill into the
// first free way. geom supplies the set index, which neither change touched.
type refArray struct {
	sets  pages[refLine]
	geom  *Array
	stamp uint64
}

func (a *refArray) Lookup(lineAddr uint64) State {
	set := a.sets.set(a.geom.setIndex(lineAddr))
	for i := range set {
		if set[i].state != Invalid && set[i].tag == lineAddr {
			a.stamp++
			set[i].lru = a.stamp
			return set[i].state
		}
	}
	return Invalid
}

func (a *refArray) Peek(lineAddr uint64) State {
	set := a.sets.set(a.geom.setIndex(lineAddr))
	for i := range set {
		if set[i].state != Invalid && set[i].tag == lineAddr {
			return set[i].state
		}
	}
	return Invalid
}

func (a *refArray) SetState(lineAddr uint64, s State) {
	set := a.sets.set(a.geom.setIndex(lineAddr))
	for i := range set {
		if set[i].state != Invalid && set[i].tag == lineAddr {
			if s == Invalid {
				set[i] = refLine{}
				return
			}
			set[i].state = s
			if s == Modified {
				set[i].dirty = true
			}
			return
		}
	}
}

// Absorb is the Peek and SetState pair fillPrivate made before Array had
// the method.
func (a *refArray) Absorb(lineAddr uint64, dirty bool) bool {
	if a.Peek(lineAddr) == Invalid {
		return false
	}
	if dirty {
		a.SetState(lineAddr, Modified)
	}
	return true
}

func (a *refArray) Insert(lineAddr uint64, s State) (Victim, bool) {
	set := a.sets.alloc(a.geom.setIndex(lineAddr))
	a.stamp++
	for i := range set {
		if set[i].state != Invalid && set[i].tag == lineAddr {
			set[i].state = s
			set[i].lru = a.stamp
			if s == Modified {
				set[i].dirty = true
			}
			return Victim{}, false
		}
	}
	for i := range set {
		if set[i].state == Invalid {
			set[i] = refLine{tag: lineAddr, state: s, lru: a.stamp, dirty: s == Modified}
			return Victim{}, false
		}
	}
	vi := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	v := Victim{LineAddr: set[vi].tag, State: set[vi].state, Dirty: set[vi].dirty}
	set[vi] = refLine{tag: lineAddr, state: s, lru: a.stamp, dirty: s == Modified}
	return v, true
}

// refDirEntry is the directory entry as it was before the packing: 48
// bytes, with an int owner.
type refDirEntry struct {
	tag       uint64
	valid     bool
	owner     int
	sharers   uint64
	lru       uint64
	presentL3 bool
}

// refDirectory is Directory over refDirEntry, its methods as they were
// before the packing.
type refDirectory struct {
	sets  pages[refDirEntry]
	geom  *Directory
	stamp uint64
}

func (d *refDirectory) Lookup(lineAddr uint64) *refDirEntry {
	set := d.sets.set(d.geom.setIndex(lineAddr))
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			d.stamp++
			set[i].lru = d.stamp
			return &set[i]
		}
	}
	return nil
}

func (d *refDirectory) Allocate(lineAddr uint64, isBusy func(uint64) bool) (*refDirEntry, refDirEntry, bool) {
	if e := d.Lookup(lineAddr); e != nil {
		return e, refDirEntry{}, false
	}
	set := d.sets.alloc(d.geom.setIndex(lineAddr))
	d.stamp++
	for i := range set {
		if !set[i].valid {
			set[i] = refDirEntry{tag: lineAddr, valid: true, owner: -1, lru: d.stamp}
			return &set[i], refDirEntry{}, false
		}
	}
	vi := -1
	bestClass := 3
	for i := 0; i < len(set); i++ {
		class := 1
		if set[i].owner == -1 && set[i].sharers == 0 {
			class = 0
		}
		if isBusy != nil && isBusy(set[i].tag) {
			class = 2
		}
		if class < bestClass || (class == bestClass && vi >= 0 && set[i].lru < set[vi].lru) || vi < 0 {
			if class <= bestClass {
				vi = i
				bestClass = class
			}
		}
	}
	ev := set[vi]
	set[vi] = refDirEntry{tag: lineAddr, valid: true, owner: -1, lru: d.stamp}
	return &set[vi], ev, true
}

// sameDirEntry reports whether a packed entry holds what the reference one
// does.
func sameDirEntry(e dirEntry, r refDirEntry) bool {
	return e.tag == r.tag && e.valid == r.valid && int(e.owner) == r.owner &&
		e.sharers == r.sharers && e.lru == r.lru && e.presentL3 == r.presentL3
}

func TestPackedEntrySizes(t *testing.T) {
	if s := unsafe.Sizeof(line{}); s != 8 {
		t.Errorf("line is %d bytes, want 8", s)
	}
	if s := unsafe.Sizeof(dirEntry{}); s != 32 {
		t.Errorf("dirEntry is %d bytes, want 32", s)
	}
}

// TestPackedArrayMatchesReference drives a packed array and the reference
// layout, straight and hashed, at 8- and 64-byte lines, with the same random
// Insert, Lookup, Peek, Absorb and SetState sequences over a pool of lines
// that overfills the sets. Both must return the same states and victims. After
// every call each set must hold the reference's valid lines, with their
// states and dirty flags, first and in descending LRU-stamp order (most
// recently used first), and every way after them must be empty.
func TestPackedArrayMatchesReference(t *testing.T) {
	for _, lineBytes := range []int{config.MinLineBytes, 64} {
		for _, hashed := range []bool{false, true} {
			geom := config.Cache{SizeBytes: 16 * 4 * lineBytes, Ways: 4, LineBytes: lineBytes}
			a := NewArray(geom)
			a.hashed = hashed
			ref := &refArray{sets: newPages[refLine](geom.Sets(), geom.Ways), geom: a}
			r := rand.New(rand.NewPCG(uint64(lineBytes), 1))
			pool := make([]uint64, 160)
			for i := range pool {
				// Near lines share sets; far ones exercise the hash.
				pool[i] = uint64(r.IntN(100)) * uint64(lineBytes)
				if i%4 == 0 {
					pool[i] += uint64(r.IntN(1<<20)) << 20
				}
			}
			var order []refLine
			for step := 0; step < 20_000; step++ {
				la := pool[r.IntN(len(pool))]
				s := State(r.IntN(4))
				var got, want any
				switch op := r.IntN(9); {
				case op < 3:
					// Insert fills a line; removing one is SetState's.
					s = State(1 + r.IntN(3))
					v, ok := a.Insert(la, s)
					rv, rok := ref.Insert(la, s)
					got, want = [2]any{v, ok}, [2]any{rv, rok}
				case op < 5:
					got, want = a.Lookup(la), ref.Lookup(la)
				case op < 6:
					got, want = a.Peek(la), ref.Peek(la)
				case op < 7:
					dirty := r.IntN(2) == 0
					got, want = a.Absorb(la, dirty), ref.Absorb(la, dirty)
				default:
					a.SetState(la, s)
					ref.SetState(la, s)
				}
				if got != want {
					t.Fatalf("%d-byte lines, hashed %v, step %d on %#x: got %v, reference %v", lineBytes, hashed, step, la, got, want)
				}
				set := a.setIndex(la)
				order = order[:0]
				for _, rl := range ref.sets.set(set) {
					if rl.state != Invalid {
						order = append(order, rl)
					}
				}
				slices.SortFunc(order, func(x, y refLine) int { return cmp.Compare(y.lru, x.lru) })
				for w, l := range a.sets.set(set) {
					ok := l == line{}
					if w < len(order) {
						rl := order[w]
						ok = l.state() != Invalid && l.tag&^flagBits == rl.tag && l.state() == rl.state && l.dirty() == rl.dirty
					}
					if !ok {
						t.Fatalf("%d-byte lines, hashed %v, step %d: set %d way %d holds %#x, reference in recency order %+v",
							lineBytes, hashed, step, set, w, l.tag, order)
					}
				}
			}
		}
	}
}

// TestPackedDirectoryMatchesReference drives a packed directory and the
// reference layout with the same random Lookup, Allocate and drop sequences
// (a drop clears the entry Lookup returned, as the hierarchy does), writing
// the same random owners (up to core 63), sharer sets and L3 presence into
// the entries they return, with a random set of busy lines. The reference
// asks isBusy of every entry of a full set, Allocate only of the entries
// that would otherwise be the victim. Both must return the same entries and
// victims, and hold the same entries after every call.
func TestPackedDirectoryMatchesReference(t *testing.T) {
	l2 := config.Cache{SizeBytes: 2048, Ways: 4, LineBytes: 64}
	d := NewDirectory(1, l2, 4, 1, 64)
	ref := &refDirectory{sets: newPages[refDirEntry](int(d.setMask)+1, 4), geom: d}
	r := rand.New(rand.NewPCG(3, 4))
	busySeed := uint64(0)
	isBusy := func(la uint64) bool { return (la>>6^busySeed)%3 == 0 }
	for step := 0; step < 20_000; step++ {
		la := uint64(r.IntN(96)) * 64
		busySeed = r.Uint64()
		var e *dirEntry
		var re *refDirEntry
		switch op := r.IntN(6); {
		case op < 2:
			e, re = d.Lookup(la), ref.Lookup(la)
		case op < 5:
			var ev dirEntry
			var rev refDirEntry
			var evicted, revicted bool
			e, ev, evicted = d.Allocate(la, isBusy)
			re, rev, revicted = ref.Allocate(la, isBusy)
			if evicted != revicted || !sameDirEntry(ev, rev) {
				t.Fatalf("step %d: Allocate(%#x) evicted %v %+v, reference %v %+v", step, la, evicted, ev, revicted, rev)
			}
		default:
			if e := d.Lookup(la); e != nil {
				*e = dirEntry{}
			}
			if re := ref.Lookup(la); re != nil {
				*re = refDirEntry{}
			}
		}
		if (e == nil) != (re == nil) || e != nil && !sameDirEntry(*e, *re) {
			t.Fatalf("step %d on %#x: entry %+v, reference %+v", step, la, e, re)
		}
		if e != nil && r.IntN(2) == 0 {
			owner := r.IntN(config.MaxCores+1) - 1
			sharers := r.Uint64() & r.Uint64()
			if r.IntN(3) == 0 {
				sharers = 0
			}
			presentL3 := r.IntN(2) == 0
			e.owner, e.sharers, e.presentL3 = int8(owner), sharers, presentL3
			re.owner, re.sharers, re.presentL3 = owner, sharers, presentL3
		}
		if d.stamp != ref.stamp {
			t.Fatalf("step %d: stamp %d, reference %d", step, d.stamp, ref.stamp)
		}
		set := d.setIndex(la)
		for w, de := range d.sets.set(set) {
			if rde := ref.sets.set(set)[w]; !sameDirEntry(de, rde) {
				t.Fatalf("step %d: set %d way %d holds %+v, reference %+v", step, set, w, de, rde)
			}
		}
	}
}
