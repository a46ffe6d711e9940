package mem

import (
	"slices"
	"testing"

	"sesa/internal/config"
	"sesa/internal/noc"
	"sesa/internal/sched"
)

// allocatedPages counts the pages of s allocated so far.
func allocatedPages[T any](s *pages[T]) int {
	n := 0
	for _, pg := range s.p {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestFreshSetsReadEmptyWithoutAllocating: on a freshly built array,
// directory and hierarchy, every read and every state change of a line that
// was never inserted answers as an empty set does, allocates nothing and
// leaves every page unallocated.
func TestFreshSetsReadEmptyWithoutAllocating(t *testing.T) {
	cfg := config.Skylake(2, config.X86)
	l3 := config.Cache{SizeBytes: cfg.Mem.L3.SizeBytes * cfg.Mem.L3Banks, Ways: cfg.Mem.L3.Ways, LineBytes: 64}
	arrays := map[string]*Array{"L2": NewArray(cfg.Mem.L2), "hashed L3": NewHashedArray(l3)}
	for name, a := range arrays {
		wrong := 0
		allocs := testing.AllocsPerRun(10, func() {
			for i := uint64(0); i < 4096; i++ {
				line := i * 64 * 7
				a.SetState(line, Modified)
				a.SetState(line, Invalid)
				if a.Lookup(line) != Invalid || a.Peek(line) != Invalid || a.Resident(line) {
					wrong++
				}
			}
		})
		if wrong != 0 || allocs != 0 || allocatedPages(&a.sets) != 0 {
			t.Errorf("%s: %d non-empty answers, %.0f allocs, %d pages; want all 0",
				name, wrong, allocs, allocatedPages(&a.sets))
		}
	}

	d := NewDirectory(2, cfg.Mem.L2, cfg.Mem.DirectoryWays, cfg.Mem.DirectoryCoverage, 64)
	wrong := 0
	allocs := testing.AllocsPerRun(10, func() {
		for i := uint64(0); i < 4096; i++ {
			if d.Lookup(i*64*7) != nil {
				wrong++
			}
		}
	})
	if wrong != 0 || allocs != 0 || allocatedPages(&d.sets) != 0 || d.stamp != 0 {
		t.Errorf("directory: %d hits, %.0f allocs, %d pages, LRU stamp %d; want all 0",
			wrong, allocs, allocatedPages(&d.sets), d.stamp)
	}

	// An invisible load on a fresh hierarchy is served from memory at the
	// cycle a cold Load is, and an invalidation or downgrade of a line no
	// core holds changes nothing; neither allocates a page.
	h, evq := newTestHierarchy(2)
	cold, _ := newTestHierarchy(2)
	coldAt, _ := cold.loadLine(0, 0x1000, 0, false)
	var loadAt uint64
	h.SetClient(0, &testClient{load: func(ref, v, w uint64) { loadAt = w }})
	remote := []sched.Event{{Kind: evInval, Core: 1, Addr: 0x2000}, {Kind: evDowngrade, Core: 1, Addr: 0x2000}}
	allocs = testing.AllocsPerRun(10, func() {
		h.LoadInvisible(0, 0x1000, 8, 0, 1)
		runUntil(h, evq, 100_000)
		h.HandleBatch(remote)
	})
	if loadAt != coldAt {
		t.Errorf("invisible load on a fresh hierarchy done at %d, a cold load at %d", loadAt, coldAt)
	}
	pages := allocatedPages(&h.dir.sets) + allocatedPages(&h.l3.sets)
	for c := range h.l1 {
		pages += allocatedPages(&h.l1[c].sets) + allocatedPages(&h.l2[c].sets)
	}
	if allocs != 0 || pages != 0 {
		t.Errorf("reads on a fresh hierarchy: %.0f allocs, %d pages; want 0", allocs, pages)
	}
}

// TestInsertAllocatesOnePage: the first insert into a set allocates that
// set's page and no other; a second set on the same page shares it.
func TestInsertAllocatesOnePage(t *testing.T) {
	a := NewHashedArray(config.Cache{SizeBytes: 8 << 20, Ways: 8, LineBytes: 64})
	line := uint64(0x12340)
	a.Insert(line, Shared)
	idx := a.setIndex(line)
	if n := allocatedPages(&a.sets); n != 1 || a.sets.p[idx>>pageBits] == nil {
		t.Fatalf("one insert allocated %d pages (its own: %v), want exactly its own",
			n, a.sets.p[idx>>pageBits] != nil)
	}
	if got := len(a.sets.p[idx>>pageBits]); got != 8<<pageBits {
		t.Errorf("page holds %d lines, want %d", got, 8<<pageBits)
	}
	for l := uint64(64); ; l += 64 {
		if j := a.setIndex(l); j != idx && j>>pageBits == idx>>pageBits {
			a.Insert(l, Shared)
			break
		}
	}
	if n := allocatedPages(&a.sets); n != 1 {
		t.Errorf("a second set on the same page allocated %d pages in all, want 1", n)
	}
	if a.Peek(line) != Shared {
		t.Error("the first line was lost")
	}

	d := NewDirectory(8, config.Cache{SizeBytes: 128 << 10, Ways: 8, LineBytes: 64}, 8, 2, 64)
	d.Allocate(line, nil)
	if n := allocatedPages(&d.sets); n != 1 || d.sets.p[d.setIndex(line)>>pageBits] == nil {
		t.Errorf("one directory allocation allocated %d pages, want exactly its own", n)
	}
}

// TestResetKeepsPagesAndAnswersAsNew: a reset hierarchy keeps every page it
// allocated, zeroed, and then serves a sequence of loads and stores with the
// values, cycles, counters and page allocations of a new hierarchy.
func TestResetKeepsPagesAndAnswersAsNew(t *testing.T) {
	cfg := config.Small(2, config.X86)
	build := func() (*Hierarchy, *sched.Clock) {
		clock := sched.NewClock(2)
		return NewHierarchy(2, cfg.Mem, noc.New(cfg.NoC, 0, 1), &clock.EventQueue), clock
	}
	pagesOf := func(h *Hierarchy) int {
		n := allocatedPages(&h.dir.sets) + allocatedPages(&h.l3.sets)
		for c := range h.l1 {
			n += allocatedPages(&h.l1[c].sets) + allocatedPages(&h.l2[c].sets)
		}
		return n
	}
	// work stores to and loads from lines enough to evict from the small
	// caches and the directory, and returns every completion seen.
	work := func(h *Hierarchy, clock *sched.Clock, lines uint64) []uint64 {
		var seen []uint64
		for c := 0; c < 2; c++ {
			h.SetClient(c, &testClient{
				load:    func(_, v, w uint64) { seen = append(seen, v, w) },
				store:   func(_, w uint64) { seen = append(seen, w) },
				removed: func(l, w uint64, ev bool) { seen = append(seen, l, w) },
			})
		}
		for i := uint64(0); i < lines; i++ {
			a := 0x1000 + i*0x440
			h.Store(int(i%2), a, 8, i+1, i*4, 0, 1)
			h.Load(int(i+1)%2, a, 8, i*4+2, 1)
		}
		clock.RunUntil(1<<40, h)
		return seen
	}
	h, clock := build()
	work(h, clock, 400)
	pages := pagesOf(h)
	clock.Reset()
	h.Reset()
	if got := pagesOf(h); got != pages {
		t.Errorf("reset kept %d of %d pages", got, pages)
	}
	if h.Stats != (Stats{}) || h.now != 0 || h.dir.stamp != 0 || h.ReadImage(0x1000, 8) != 0 {
		t.Errorf("reset left state behind: stats %+v, now %d, directory stamp %d, [0x1000]=%d",
			h.Stats, h.now, h.dir.stamp, h.ReadImage(0x1000, 8))
	}
	fresh, freshClock := build()
	got, want := work(h, clock, 150), work(fresh, freshClock, 150)
	if !slices.Equal(got, want) || h.Stats != fresh.Stats {
		t.Errorf("a reset hierarchy differs from a new one:\nreset: %v %+v\nnew:   %v %+v", got, h.Stats, want, fresh.Stats)
	}
	// The second pass touches a prefix of the first's lines: the reset
	// hierarchy serves it from the pages it kept.
	if n := pagesOf(h); n != pages {
		t.Errorf("the second pass grew the reset hierarchy from %d to %d pages", pages, n)
	}
}
