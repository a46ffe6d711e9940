package mem

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sesa/internal/config"
	"sesa/internal/noc"
	"sesa/internal/sched"
)

// traffic drives random multi-core requests into a hierarchy, as cores do:
// loads, stores, RMWs, invisible loads and ownership prefetches over a
// region of lines, a fifth of them on a few hot lines that every core
// shares, with the clock advancing a few cycles between requests and each
// batch of due events delivered before the next request.
type traffic struct {
	h   *Hierarchy
	evq *sched.EventQueue
	r   *rand.Rand
	// The region is lines i%64 + i/64<<hiShift for i below lines. A
	// hiShift of 6 makes it contiguous; 14, on Table III, puts its lines
	// in 64 L1, L2 and L3 sets, so that every level evicts while a check
	// walks only a few L3 pages.
	lines   uint64
	hiShift uint
	now     uint64
}

func newTraffic(cfg config.Config, lines uint64, hiShift uint, seed uint64) *traffic {
	evq := sched.NewEventQueue()
	h := NewHierarchy(cfg.Cores, cfg.Mem, noc.New(cfg.NoC, 2, seed), evq)
	return &traffic{h: h, evq: evq, r: rand.New(rand.NewPCG(seed, 1)), lines: lines, hiShift: hiShift}
}

// addr picks a word in the region.
func (tr *traffic) addr() uint64 {
	i := tr.r.Uint64N(tr.lines)
	if tr.r.IntN(5) == 0 {
		i = tr.r.Uint64N(4)
	}
	return (i%64+i/64<<tr.hiShift)*64 + tr.r.Uint64N(8)*8
}

// deliver fires every event due by the current cycle, running after after
// each delivered batch.
func (tr *traffic) deliver(after func()) {
	tr.evq.RunUntil(tr.now, batchHook{tr.h, after})
}

// step advances the clock, delivers what is due and issues one random
// request.
func (tr *traffic) step(after func()) {
	tr.now += tr.r.Uint64N(6)
	tr.deliver(after)
	core, a := tr.r.IntN(tr.h.cores), tr.addr()
	switch op := tr.r.IntN(10); {
	case op < 4:
		tr.h.Load(core, a, 8, tr.now, 0)
	case op < 7:
		notBefore := uint64(0)
		if tr.r.IntN(4) == 0 {
			notBefore = tr.now + tr.r.Uint64N(300)
		}
		tr.h.Store(core, a, 8, tr.r.Uint64(), tr.now, notBefore, 0)
	case op < 8:
		tr.h.RMW(core, a, 8, 1, tr.now, 0)
	case op < 9:
		tr.h.LoadInvisible(core, a, 8, tr.now, 0)
	default:
		tr.h.PrefetchOwner(core, a, tr.now)
	}
}

// batchHook delivers a batch into the hierarchy and then runs after.
type batchHook struct {
	h     *Hierarchy
	after func()
}

func (b batchHook) HandleBatch(evs []sched.Event) {
	b.h.HandleBatch(evs)
	b.after()
}

// peekDir returns the directory entry for lineAddr without touching LRU.
func peekDir(d *Directory, lineAddr uint64) *dirEntry {
	set := d.sets.set(d.setIndex(lineAddr))
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// allSets calls f with every set of a's allocated pages.
func allSets(a *Array, f func(set []line)) {
	for _, pg := range a.sets.used {
		for s := uint64(0); s < 1<<pageBits && s <= a.setMask; s++ {
			f(a.sets.set(uint64(pg)<<pageBits | s))
		}
	}
}

// checkInvariants reports the first breach of two invariants of the
// hierarchy. The L3 holds a line exactly when the line's directory entry
// exists with presentL3, which is what lets a store skip the L3 walk when
// presentL3 is false. And in every cache array each set's valid ways come
// first, which is what lets a walk stop at the first empty way.
func checkInvariants(h *Hierarchy) error {
	var err error
	allSets(h.l3, func(set []line) {
		for _, l := range set {
			if la := l.tag &^ flagBits; err == nil && l.state() != Invalid {
				if e := peekDir(h.dir, la); e == nil || !e.presentL3 {
					err = fmt.Errorf("the L3 holds %#x, whose directory entry is %+v", la, e)
				}
			}
		}
	})
	for _, set := range h.dir.sets.p {
		for _, e := range set {
			if err == nil && e.valid && e.presentL3 && h.l3.Peek(e.tag) == Invalid {
				err = fmt.Errorf("directory entry %+v says the L3 holds its line, which it does not", e)
			}
		}
	}
	arrays := append(append([]*Array{h.l3}, h.l1...), h.l2...)
	for i, a := range arrays {
		allSets(a, func(set []line) {
			for w := 1; w < len(set); w++ {
				if err == nil && set[w-1] == (line{}) && set[w] != (line{}) {
					err = fmt.Errorf("array %d: a set holds a line after an empty way: %v", i, set)
				}
			}
		})
	}
	return err
}

// TestHierarchyInvariants drives random multi-core traffic through the
// Table III hierarchy and config.Small's, whose tiny caches and directory
// evict and victimize on most misses, and checks the hierarchy's invariants
// after every request and every delivered batch of events.
func TestHierarchyInvariants(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     config.Config
		lines   uint64
		hiShift uint
		steps   int
	}{
		{"Table III", config.Skylake(2, config.X86), 4096, 14, 4000},
		// Four times the L3 and the directory.
		{"Small", config.Small(4, config.X86), 2048, 6, 8000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTraffic(tc.cfg, tc.lines, tc.hiShift, 7)
			check := func() {
				if err := checkInvariants(tr.h); err != nil {
					t.Fatalf("cycle %d: %v", tr.now, err)
				}
			}
			for i := 0; i < tc.steps; i++ {
				tr.step(check)
				check()
			}
			tr.now += 1 << 20
			tr.deliver(check)
			s := tr.h.Stats
			if s.L2Evictions == 0 || s.L3Evictions == 0 || tc.name == "Small" && s.DirEvictions == 0 {
				t.Errorf("the traffic evicted too little to check: %+v", s)
			}
		})
	}
}

// coherenceState is what a hierarchy's caches and directory hold, apart
// from recency: each set's lines as a sorted list of packed tags (line
// address, MESI state and dirty flag), each directory entry without its LRU
// stamp, and the busy windows.
type coherenceState struct {
	lines []uint64
	dir   []dirEntry
	busy  []slot
}

// capture records h's state, reusing s's storage.
func (s *coherenceState) capture(h *Hierarchy) {
	s.lines, s.dir = s.lines[:0], s.dir[:0]
	for _, a := range append(append([]*Array{h.l3}, h.l1...), h.l2...) {
		allSets(a, func(set []line) {
			n := len(s.lines)
			for _, l := range set {
				s.lines = append(s.lines, l.tag)
			}
			slices.Sort(s.lines[n:])
		})
	}
	for _, set := range h.dir.sets.p {
		for _, e := range set {
			e.lru = 0
			s.dir = append(s.dir, e)
		}
	}
	s.busy = append(append(s.busy[:0], h.busyUntil.slots...), slot{val: h.busyUntil.zeroVal})
}

func (s *coherenceState) equal(o *coherenceState) bool {
	return slices.Equal(s.lines, o.lines) && slices.Equal(s.dir, o.dir) && slices.Equal(s.busy, o.busy)
}

// TestLoadInvisibleLeavesCoherenceState: an invisible load, issued amid
// random traffic with transactions in flight, changes no line, MESI state or
// dirty flag in any cache, no directory owner, sharer set or L3 presence, and
// no busy window. It does refresh recency (see LoadInvisible), which this
// state leaves out.
func TestLoadInvisibleLeavesCoherenceState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     config.Config
		lines   uint64
		hiShift uint
	}{
		{"Table III", config.Skylake(2, config.X86), 4096, 14},
		{"Small", config.Small(4, config.X86), 2048, 6},
	} {
		tr := newTraffic(tc.cfg, tc.lines, tc.hiShift, 11)
		var before, after coherenceState
		for i := 0; i < 6000; i++ {
			tr.step(func() {})
			if i%3 != 0 {
				continue
			}
			before.capture(tr.h)
			core, a := tr.r.IntN(tr.h.cores), tr.addr()
			tr.h.LoadInvisible(core, a, 8, tr.now, 0)
			if after.capture(tr.h); !before.equal(&after) {
				t.Fatalf("%s, step %d: an invisible load by core %d of %#x changed the coherence state", tc.name, i, core, a)
			}
		}
	}
}
