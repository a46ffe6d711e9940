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
// One pass finds the entry, the first free way and the victim.
func (d *Directory) Allocate(lineAddr uint64, isBusy func(uint64) bool) (e *dirEntry, evicted dirEntry, wasEvicted bool) {
	set := d.sets.alloc(d.setIndex(lineAddr))
	d.stamp++
	// Victim preference: entries with no live private copy first (their
	// eviction sends no back-invalidations), then LRU among the rest; a
	// line with an in-flight transaction is victimized only as a last
	// resort. isBusy is asked only of an entry that would otherwise win.
	free, vi, bestClass := -1, -1, 0
	for i := range set {
		c := &set[i]
		switch {
		case !c.valid:
			if free < 0 {
				free = i
			}
		case c.tag == lineAddr:
			c.lru = d.stamp
			return c, dirEntry{}, false
		case free < 0:
			class := 1
			if c.owner == -1 && c.sharers == 0 {
				class = 0
			}
			if vi >= 0 && (class > bestClass || class == bestClass && c.lru > set[vi].lru) {
				continue
			}
			if isBusy != nil && isBusy(c.tag) {
				class = 2
				if vi >= 0 && (class > bestClass || c.lru > set[vi].lru) {
					continue
				}
			}
			vi, bestClass = i, class
		}
	}
	if free >= 0 {
		set[free] = dirEntry{tag: lineAddr, valid: true, owner: -1, lru: d.stamp}
		return &set[free], dirEntry{}, false
	}
	ev := set[vi]
	set[vi] = dirEntry{tag: lineAddr, valid: true, owner: -1, lru: d.stamp}
	return &set[vi], ev, true
}
