package mem

import "sesa/internal/config"

// dirEntry tracks the coherence state of one line across the private cache
// hierarchy: which cores hold it and whether one holds it exclusively. It
// is 32 bytes: machines have at most 64 cores (config.Validate), so the
// sharer set fits a uint64 and the owner an int8.
type dirEntry struct {
	tag       uint64
	sharers   uint64 // bitmask of cores holding S
	lru       uint64
	owner     int8 // core holding E/M, or -1
	valid     bool
	presentL3 bool // whether the data is also cached in the L3
}

// Directory is the sparse, set-associative full-map directory (Table III: 8
// ways, 200% L2 coverage, 8 banks). A directory eviction invalidates every
// cached copy of the line, which is one source of the eviction-induced
// squashes the paper observes on 505.mcf.
type Directory struct {
	sets      pages[dirEntry]
	setMask   uint64
	lineShift uint
	setBits   uint
	stamp     uint64
}

// NewDirectory sizes the directory to cover coverage × the aggregate L2
// capacity of cores, with the given associativity.
func NewDirectory(cores int, l2 config.Cache, ways int, coverage float64, lineBytes int) *Directory {
	linesCovered := int(coverage * float64(cores*l2.SizeBytes/lineBytes))
	sets := nextPow2(linesCovered / ways)
	if sets < 1 {
		sets = 1
	}
	return &Directory{
		sets:      newPages[dirEntry](sets, ways),
		setMask:   uint64(sets - 1),
		lineShift: log2(uint64(lineBytes)),
		setBits:   log2(uint64(sets)),
	}
}

// reset empties the directory, keeping its geometry and its allocated
// pages: every entry invalid and the LRU stamp back at 0.
func (d *Directory) reset() {
	*d = Directory{sets: d.sets, setMask: d.setMask, lineShift: d.lineShift, setBits: d.setBits}
	d.sets.clear()
}

func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// setIndex hash-indexes like a shared LLC so power-of-two-spaced regions
// spread across sets.
func (d *Directory) setIndex(lineAddr uint64) uint64 {
	return hashIndex(lineAddr>>d.lineShift, d.setBits) & d.setMask
}

// Lookup finds the entry for lineAddr, touching LRU. It returns nil on miss.
func (d *Directory) Lookup(lineAddr uint64) *dirEntry {
	set := d.sets.set(d.setIndex(lineAddr))
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			d.stamp++
			set[i].lru = d.stamp
			return &set[i]
		}
	}
	return nil
}

// Allocate returns the entry for lineAddr, allocating (and possibly
// evicting) as needed. The evicted entry, if any, is returned by value so
// the caller can invalidate its sharers. Entries whose line isBusy (an
// ongoing coherence transaction) are skipped as victims when possible,
// mimicking a blocking directory that cannot victimize a transient entry.
func (d *Directory) Allocate(lineAddr uint64, isBusy func(uint64) bool) (e *dirEntry, evicted dirEntry, wasEvicted bool) {
	if e := d.Lookup(lineAddr); e != nil {
		return e, dirEntry{}, false
	}
	set := d.sets.alloc(d.setIndex(lineAddr))
	d.stamp++
	for i := range set {
		if !set[i].valid {
			set[i] = dirEntry{tag: lineAddr, valid: true, owner: -1, lru: d.stamp}
			return &set[i], dirEntry{}, false
		}
	}
	// Victim preference: entries with no live private copy first (their
	// eviction sends no back-invalidations), then LRU among the rest; a
	// line with an in-flight transaction is victimized only as a last
	// resort.
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
	set[vi] = dirEntry{tag: lineAddr, valid: true, owner: -1, lru: d.stamp}
	return &set[vi], ev, true
}

// Remove drops the entry for lineAddr if present.
func (d *Directory) Remove(lineAddr uint64) {
	set := d.sets.set(d.setIndex(lineAddr))
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i] = dirEntry{}
			return
		}
	}
}
