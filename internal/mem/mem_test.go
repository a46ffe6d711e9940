package mem

import (
	"testing"
	"testing/quick"

	"sesa/internal/config"
	"sesa/internal/noc"
	"sesa/internal/sched"
)

func testCache() config.Cache {
	return config.Cache{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64, HitCycles: 4}
}

func TestArrayInsertLookupEvict(t *testing.T) {
	a := NewArray(testCache()) // 8 sets, 2 ways
	line0 := uint64(0x0000)
	line8 := uint64(0x0000 + 8*64) // same set as line0
	line16 := uint64(0x0000 + 16*64)

	if _, ev := a.Insert(line0, Shared); ev {
		t.Fatal("no eviction expected on empty set")
	}
	if _, ev := a.Insert(line8, Exclusive); ev {
		t.Fatal("two ways available")
	}
	if a.Lookup(line0) != Shared || a.Lookup(line8) != Exclusive {
		t.Fatal("lookups disagree with inserts")
	}
	// line16 maps to the same set; LRU is line0 (touched before line8...
	// but Lookup refreshed both; touch line8 again so line0 is LRU).
	a.Lookup(line8)
	v, ev := a.Insert(line16, Modified)
	if !ev || v.LineAddr != line0 {
		t.Fatalf("expected eviction of %#x, got %+v ev=%v", line0, v, ev)
	}
	if a.Resident(line0) {
		t.Error("evicted line still resident")
	}
}

func TestArraySetStateAndDirty(t *testing.T) {
	a := NewArray(testCache())
	line := uint64(0x40)
	a.Insert(line, Exclusive)
	a.SetState(line, Modified)
	if a.Peek(line) != Modified {
		t.Fatal("state not updated")
	}
	// Evict it: the victim must be dirty.
	same := func(i uint64) uint64 { return line + i*8*64 }
	a.Insert(same(1), Shared)
	v, ev := a.Insert(same(2), Shared)
	if !ev || v.LineAddr != line || !v.Dirty {
		t.Errorf("expected dirty eviction of %#x, got %+v", line, v)
	}
	a.SetState(same(1), Invalid)
	if a.Resident(same(1)) {
		t.Error("SetState(Invalid) should remove the line")
	}
}

func TestHashedArraySpreadsAliasedRegions(t *testing.T) {
	// Addresses spaced by large powers of two alias to one set in a
	// straight-indexed array but spread in a hashed one.
	straight := NewArray(config.Cache{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, HitCycles: 1})
	hashed := NewHashedArray(config.Cache{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, HitCycles: 1})
	evS, evH := 0, 0
	for i := uint64(0); i < 64; i++ {
		addr := i << 26 // 64 MiB apart: identical low bits
		if _, ev := straight.Insert(addr, Shared); ev {
			evS++
		}
		if _, ev := hashed.Insert(addr, Shared); ev {
			evH++
		}
	}
	if evS == 0 {
		t.Error("straight indexing should thrash on power-of-two strides")
	}
	if evH != 0 {
		t.Errorf("hashed indexing should spread these lines, got %d evictions", evH)
	}
}

func TestDirectorySharersAndEviction(t *testing.T) {
	d := NewDirectory(4, config.Cache{SizeBytes: 4 << 10, Ways: 2, LineBytes: 64}, 2, 0.1, 64)
	e, _, ev := d.Allocate(0x1000, nil)
	if ev {
		t.Fatal("first allocation should not evict")
	}
	e.owner = 2
	if got := d.Lookup(0x1000); got == nil || got.owner != 2 {
		t.Fatal("lookup lost the entry")
	}
	*d.Lookup(0x1000) = dirEntry{}
	if d.Lookup(0x1000) != nil {
		t.Fatal("cleared entry still present")
	}
}

func TestDirectoryVictimSkipsBusyLines(t *testing.T) {
	d := NewDirectory(1, config.Cache{SizeBytes: 128, Ways: 1, LineBytes: 64}, 2, 1, 64)
	// Force a tiny directory and fill one set.
	var lines []uint64
	for i := uint64(0); len(lines) < 3; i++ {
		lines = append(lines, i*64)
	}
	a, _, _ := d.Allocate(lines[0], nil)
	_ = a
	// Find two more lines in the same set.
	set0 := d.setIndex(lines[0])
	var sameSet []uint64
	for i := uint64(1); len(sameSet) < 2; i++ {
		if d.setIndex(i*64) == set0 {
			sameSet = append(sameSet, i*64)
		}
	}
	d.Allocate(sameSet[0], nil)
	// Now the set is full (2 ways). Allocating a third with the LRU
	// marked busy must evict the other entry.
	busy := func(l uint64) bool { return l == lines[0] }
	_, ev, wasEv := d.Allocate(sameSet[1], busy)
	if !wasEv {
		t.Fatal("expected an eviction")
	}
	if ev.tag == lines[0] {
		t.Error("victim selection chose a busy line despite alternatives")
	}
}

func newTestHierarchy(cores int) (*Hierarchy, *sched.EventQueue) {
	cfg := config.Skylake(cores, config.X86)
	evq := sched.NewEventQueue()
	net := noc.New(cfg.NoC, 0, 1)
	return NewHierarchy(cores, cfg.Mem, net, evq), evq
}

// testClient adapts per-test closures to the Client interface; nil fields
// ignore that notification.
type testClient struct {
	removed func(line, when uint64, eviction bool)
	load    func(ref, val, when uint64)
	store   func(ref, when uint64)
	rmw     func(ref, old, when uint64)
}

func (c *testClient) OnLineRemoved(line, when uint64, ev bool) {
	if c.removed != nil {
		c.removed(line, when, ev)
	}
}

func (c *testClient) OnLoadDone(ref, val, when uint64) {
	if c.load != nil {
		c.load(ref, val, when)
	}
}

func (c *testClient) OnStoreWrote(ref, when uint64) {
	if c.store != nil {
		c.store(ref, when)
	}
}

func (c *testClient) OnRMWDone(ref, old, when uint64) {
	if c.rmw != nil {
		c.rmw(ref, old, when)
	}
}

// runUntil fires all events due by cycle into the hierarchy itself, as the
// machine does.
func runUntil(h *Hierarchy, evq *sched.EventQueue, cycle uint64) {
	evq.RunUntil(cycle, h)
}

func TestHierarchyLoadLatencies(t *testing.T) {
	h, evq := newTestHierarchy(2)
	h.WriteImage(0x1000, 8, 99)

	var gotVal, gotWhen uint64
	h.SetClient(0, &testClient{load: func(ref, v, w uint64) { gotVal, gotWhen = v, w }})
	h.Load(0, 0x1000, 8, 0, 1)
	runUntil(h, evq, 10_000)
	if gotVal != 99 {
		t.Fatalf("cold load value = %d", gotVal)
	}
	coldWhen := gotWhen
	// L1 hit: exactly the L1 latency.
	h.Load(0, 0x1000, 8, coldWhen, 1)
	runUntil(h, evq, coldWhen+100)
	if gotWhen != coldWhen+4 {
		t.Errorf("L1 hit latency = %d, want 4", gotWhen-coldWhen)
	}
	// The cold miss must include L1+L2 lookups, a control hop, the L3
	// lookup, memory and a data return: well over 180 cycles.
	if coldWhen < 180 {
		t.Errorf("cold miss completed at %d, implausibly fast", coldWhen)
	}
}

func TestWriteAtomicity(t *testing.T) {
	// Core 1 caches the line; core 0 then writes it. The protocol must
	// deliver core 1's invalidation no later than the write's insertion
	// (the write is acknowledged only after all invalidations).
	h, evq := newTestHierarchy(2)
	h.WriteImage(0x2000, 8, 1)

	var invalAt, loaded uint64
	h.SetClient(1, &testClient{
		removed: func(line, cycle uint64, ev bool) {
			if line == h.LineAddr(0x2000) && !ev {
				invalAt = cycle
			}
		},
		load: func(ref, v, w uint64) { loaded = w },
	})

	h.Load(1, 0x2000, 8, 0, 1)
	runUntil(h, evq, 10_000)
	if loaded == 0 {
		t.Fatal("load did not complete")
	}

	var storeDone uint64
	h.SetClient(0, &testClient{store: func(ref, w uint64) { storeDone = w }})
	h.Store(0, 0x2000, 8, 42, loaded+1, 0, 1)
	runUntil(h, evq, loaded+10_000)
	if storeDone == 0 {
		t.Fatal("store did not complete")
	}
	if invalAt == 0 {
		t.Fatal("sharer was never invalidated")
	}
	if invalAt > storeDone {
		t.Errorf("write inserted at %d before invalidation delivery at %d: not write-atomic",
			storeDone, invalAt)
	}
	if h.ReadImage(0x2000, 8) != 42 {
		t.Errorf("image = %d, want 42", h.ReadImage(0x2000, 8))
	}
}

func TestStoreNotBeforeClamp(t *testing.T) {
	h, evq := newTestHierarchy(1)
	w1 := h.Store(0, 0x3000, 8, 1, 0, 0, 0)
	runUntil(h, evq, 100_000)
	// Second store to the now-owned line, with a notBefore far in the
	// future: the insertion must be clamped.
	w2 := h.Store(0, 0x3000, 8, 2, w1+1, w1+500, 0)
	runUntil(h, evq, w1+10_000)
	if w2 < w1+500 {
		t.Errorf("store inserted at %d, notBefore %d ignored", w2, w1+500)
	}
}

func TestRMWReturnsOldValue(t *testing.T) {
	h, evq := newTestHierarchy(1)
	h.WriteImage(0x4000, 8, 10)
	var old uint64
	h.SetClient(0, &testClient{rmw: func(ref, o, w uint64) { old = o }})
	h.RMW(0, 0x4000, 8, 5, 0, 1)
	runUntil(h, evq, 10_000)
	if old != 10 {
		t.Errorf("RMW old = %d, want 10", old)
	}
	if got := h.ReadImage(0x4000, 8); got != 15 {
		t.Errorf("RMW result = %d, want 15", got)
	}
}

func TestImagePartialWrites(t *testing.T) {
	h, _ := newTestHierarchy(1)
	h.WriteImage(0x100, 8, 0xAABBCCDDEEFF0011)
	if got := h.ReadImage(0x104, 4); got != 0xAABBCCDD {
		t.Errorf("partial read = %#x", got)
	}
	h.WriteImage(0x104, 4, 0x12345678)
	if got := h.ReadImage(0x100, 8); got != 0x12345678EEFF0011 {
		t.Errorf("partial write merged wrong: %#x", got)
	}
	h.WriteImage(0x101, 1, 0x42)
	if got := h.ReadImage(0x101, 1); got != 0x42 {
		t.Errorf("byte write = %#x", got)
	}
}

func TestEvictionNotifiesOwnCore(t *testing.T) {
	h, evq := newTestHierarchy(1)
	evictions := 0
	var when uint64
	h.SetClient(0, &testClient{
		removed: func(line, cycle uint64, ev bool) {
			if ev {
				evictions++
			}
		},
		load: func(ref, v, w uint64) { when = w },
	})
	// Walk far more lines than the L1 holds.
	lines := h.l1[0].setMask + 1
	total := (lines + 1) * 8 * 2 // sets * ways * 2
	for i := uint64(0); i < total; i++ {
		h.Load(0, i*64, 8, when, 1)
		runUntil(h, evq, when+100_000)
		when++
	}
	if evictions == 0 {
		t.Error("no eviction notifications despite L1 overflow")
	}
}

func TestStridePrefetcherFires(t *testing.T) {
	h, evq := newTestHierarchy(1)
	var when uint64
	h.SetClient(0, &testClient{load: func(ref, v, w uint64) { when = w }})
	for i := uint64(0); i < 16; i++ {
		h.Load(0, 0x10000+i*64, 8, when, 1)
		runUntil(h, evq, when+100_000)
	}
	if h.Stats.Prefetches == 0 {
		t.Error("stride prefetcher never fired on a unit-line stride")
	}
}

func TestRFOPrefetchMakesDrainHit(t *testing.T) {
	h, evq := newTestHierarchy(1)
	h.PrefetchOwner(0, 0x20000, 0)
	runUntil(h, evq, 100_000)
	missesBefore := h.Stats.L1Misses
	done := h.Store(0, 0x20000, 8, 7, 1000, 0, 0)
	runUntil(h, evq, 100_000)
	if h.Stats.L1Misses != missesBefore {
		t.Error("store after RFO prefetch should hit the L1")
	}
	if done == 0 || done > 1000+8 {
		t.Errorf("owned-line store commit took %d cycles", done-1000)
	}
}

// TestMemoryOpDeliveryZeroAlloc pins the event path's allocation budget:
// with the tables warm, issuing loads and stores and delivering their
// completion events must not allocate. Requests are plain uint64 refs and
// events are heap values, so there is no per-operation closure or box.
func TestMemoryOpDeliveryZeroAlloc(t *testing.T) {
	h, evq := newTestHierarchy(1)
	h.SetClient(0, &testClient{})
	h.Reserve(64, 64)
	// Warm up a small footprint so the caches, directory, image and busy
	// tables reach steady state.
	var now uint64
	for i := uint64(0); i < 512; i++ {
		h.Load(0, (i*64)%2048, 8, now, 1)
		h.Store(0, (i*64+8)%2048, 8, i, now, 0, 1)
		runUntil(h, evq, now+1_000_000)
		now += 100
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Load(0, now%2048, 8, now, 1)
		h.Store(0, (now+8)%2048, 8, 1, now, 0, 1)
		runUntil(h, evq, now+1_000_000)
		now += 64
	})
	if allocs != 0 {
		t.Errorf("load+store+delivery allocates %.2f per op pair, want 0", allocs)
	}
}

// BenchmarkHierarchyMissStream streams one Table III core's loads and
// stores over four times the L3's lines, so that every access misses at
// every level, every fill evicts from the L1, the L2 and the L3, and every
// directory allocation victimizes an entry: the memory-bound path 505.mcf
// runs. One operation issues a load or a store and delivers the events due
// by then. After a warm-up pass has allocated every page and table slot, it
// must not allocate.
func BenchmarkHierarchyMissStream(b *testing.B) {
	h, evq := newTestHierarchy(1)
	h.SetClient(0, &testClient{})
	l3 := h.cfg.L3
	lines := uint64(4 * l3.SizeBytes * h.cfg.L3Banks / l3.LineBytes)
	h.Reserve(int(lines), int(lines))
	var now uint64
	op := func(i uint64) {
		addr := i % lines * uint64(l3.LineBytes)
		if i%2 == 0 {
			h.Load(0, addr, 8, now, 1)
		} else {
			h.Store(0, addr, 8, i, now, 0, 1)
		}
		now += 4
		runUntil(h, evq, now)
	}
	for i := uint64(0); i < lines; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(uint64(i))
	}
}

// TestImageReadWriteRoundTrip is a property test on the data image.
func TestImageReadWriteRoundTrip(t *testing.T) {
	h, _ := newTestHierarchy(1)
	f := func(addr uint32, val uint64, szSel uint8) bool {
		sizes := []uint8{1, 2, 4, 8}
		sz := sizes[int(szSel)%len(sizes)]
		a := uint64(addr) &^ (uint64(sz) - 1)
		h.WriteImage(a, sz, val)
		mask := uint64(1)<<(uint64(sz)*8) - 1
		if sz == 8 {
			mask = ^uint64(0)
		}
		return h.ReadImage(a, sz) == val&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
