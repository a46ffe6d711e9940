package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"sesa/internal/isa"
)

// sqHarness is an arena + store queue pair, the minimal state the SQ/SB
// operates over.
type sqHarness struct {
	ar arena
	q  storeQueue
}

func newSQHarness(capacity int) *sqHarness {
	return &sqHarness{ar: newArena(capacity + 8), q: newStoreQueue(capacity)}
}

// addStore dispatches a store with the given dynSeq and address into the
// arena and the queue, returning its slot.
func (h *sqHarness) addStore(seq uint64, addr uint64) int32 {
	i := h.ar.alloc()
	e := &h.ar.ents[i]
	e.inst = isa.StoreImm(addr, seq)
	e.dynSeq = seq
	h.q.alloc(h.ar.refOf(i), e)
	return i
}

// write retires the store and completes its L1 write: the slot leaves the
// queue and the arena recycles the entry, as storeWrote does.
func (h *sqHarness) write(i int32) {
	h.ar.stat[i] = stRetired
	h.ar.ents[i].writtenL1 = true
	h.q.free(h.ar.refOf(i))
	h.ar.release(i)
}

func TestStoreQueueAllocFreeWrapSortingBit(t *testing.T) {
	h := newSQHarness(4)
	var seq uint64

	// Fill, drain, and refill across the wrap-around: the sorting bit of
	// each slot must flip, so keys from the two generations differ.
	firstGen := make([]key, 4)
	idxs := make([]int32, 4)
	for i := 0; i < 4; i++ {
		seq++
		idxs[i] = h.addStore(seq, uint64(i*64))
		firstGen[i] = h.ar.ents[idxs[i]].sqKey
	}
	if !h.q.full() {
		t.Fatal("queue should be full")
	}
	for i := 0; i < 4; i++ {
		h.write(idxs[i])
	}
	if !h.q.empty() {
		t.Fatal("queue should be empty")
	}
	for i := 0; i < 4; i++ {
		seq++
		e := &h.ar.ents[h.addStore(seq, uint64(i*64))]
		if e.sqKey.slot != firstGen[i].slot {
			t.Errorf("slot %d: expected same slot reuse", i)
		}
		if e.sqKey.sort == firstGen[i].sort {
			t.Errorf("slot %d: sorting bit did not flip on wrap", i)
		}
	}
}

func TestStoreQueuePresent(t *testing.T) {
	h := newSQHarness(2)
	i1 := h.addStore(1, 0)
	k1 := h.ar.ents[i1].sqKey
	slot1 := h.ar.ents[i1].sqSlot
	if !h.q.present(&h.ar, k1) {
		t.Fatal("freshly allocated store should be present")
	}
	h.write(i1)
	if h.q.present(&h.ar, k1) {
		t.Error("freed store should not be present")
	}
	// A new store in the same slot must not match the old key: the tail
	// wraps back to slot 0 on the second allocation.
	h.addStore(2, 64)
	i3 := h.addStore(3, 128)
	if h.ar.ents[i3].sqSlot != slot1 {
		t.Fatalf("expected slot reuse, got %d vs %d", h.ar.ents[i3].sqSlot, slot1)
	}
	if h.q.present(&h.ar, k1) {
		t.Error("old-generation key must not match the slot's new occupant")
	}
	if !h.q.present(&h.ar, h.ar.ents[i3].sqKey) {
		t.Error("new occupant should be present under its own key")
	}
}

func TestStoreQueueRollback(t *testing.T) {
	h := newSQHarness(4)
	a := h.addStore(1, 0)
	b := h.addStore(2, 64)
	cc := h.addStore(3, 128)
	bSlot, bSort := h.ar.ents[b].sqSlot, h.ar.ents[b].sqKey.sort
	// Squash flushes the youngest suffix: c then b.
	h.q.rollback(h.ar.refOf(cc))
	h.ar.release(cc)
	h.q.rollback(h.ar.refOf(b))
	h.ar.release(b)
	if h.q.count != 1 || h.q.oldest() != h.ar.refOf(a) {
		t.Fatalf("rollback broke the queue: count=%d", h.q.count)
	}
	// Re-allocation reuses the rolled-back slots with unchanged sorting
	// bits (no wrap happened).
	b2 := h.addStore(4, 64)
	if h.ar.ents[b2].sqSlot != bSlot || h.ar.ents[b2].sqKey.sort != bSort {
		t.Error("re-allocated slot should keep its sorting bit")
	}
}

func TestStoreQueueRollbackOutOfOrderPanics(t *testing.T) {
	h := newSQHarness(4)
	a := h.addStore(1, 0)
	h.addStore(2, 64)
	defer func() {
		if recover() == nil {
			t.Error("rolling back a non-youngest store must panic")
		}
	}()
	h.q.rollback(h.ar.refOf(a))
}

func TestStoreQueueSearchOrder(t *testing.T) {
	h := newSQHarness(8)
	h.addStore(1, 0x100)
	mid := h.addStore(2, 0x100)
	ld := &entry{inst: isa.Load(1, 0x100), dynSeq: 3, age: 2}
	m, unk := h.q.youngestOlderMatch(&h.ar, ld)
	if m != mid {
		t.Error("search must return the youngest older matching store")
	}
	if unk >= 0 {
		t.Error("no unknown-address store expected")
	}

	// A younger store (dynSeq 4) must not match a load with dynSeq 3.
	h.addStore(4, 0x100)
	if m, _ := h.q.youngestOlderMatch(&h.ar, ld); m != mid {
		t.Error("younger store must be invisible to an older load")
	}
}

func TestStoreQueueUnknownAddressBlocksSearch(t *testing.T) {
	h := newSQHarness(8)
	known := h.addStore(1, 0x200)
	// Store with an address dependency that has not resolved: its Src2
	// producer is a dispatched (incomplete) arena entry.
	prod := h.ar.alloc()
	dep := h.ar.alloc()
	de := &h.ar.ents[dep]
	de.inst = isa.Inst{Op: isa.OpStore, Src1: isa.RegNone, Src2: 5, Addr: 0x200}
	de.dynSeq = 2
	de.src2Prod = h.ar.refOf(prod)
	h.q.alloc(h.ar.refOf(dep), de)
	ld := &entry{inst: isa.Load(1, 0x200), dynSeq: 3, age: 2}
	m, unk := h.q.youngestOlderMatch(&h.ar, ld)
	if unk != dep {
		t.Error("unresolved store should be reported")
	}
	// The older resolved match is returned alongside the younger
	// unresolved store: the caller may speculate past the unknown
	// (StoreSet D-speculation) and forward from the match; if the unknown
	// later resolves to the same address, the dependence-violation check
	// squashes the load.
	if m != known {
		t.Error("resolved older match should be returned for D-speculation")
	}
	if h.ar.ents[unk].dynSeq < h.ar.ents[m].dynSeq {
		t.Error("reported unknown must be younger than the match")
	}
	// Completing the producer resolves the address.
	h.ar.stat[prod] = stDone
	if _, unk := h.q.youngestOlderMatch(&h.ar, ld); unk >= 0 {
		t.Error("address should be known once the producer completes")
	}
	// A recycled producer slot means the producer retired: still known.
	h.ar.release(prod)
	if _, unk := h.q.youngestOlderMatch(&h.ar, ld); unk >= 0 {
		t.Error("a stale producer ref must read as resolved")
	}
}

func TestStoreQueueAnyOlderUnwritten(t *testing.T) {
	h := newSQHarness(4)
	a := h.addStore(1, 0)
	h.addStore(5, 64)
	if !h.q.anyOlderUnwritten(&h.ar, 3) {
		t.Error("store 1 is older than 3 and unwritten")
	}
	h.write(a)
	if h.q.anyOlderUnwritten(&h.ar, 3) {
		t.Error("store 1 written; store 5 is younger than 3")
	}
	if !h.q.anyOlderUnwritten(&h.ar, 10) {
		t.Error("store 5 is older than 10 and unwritten")
	}
}

// TestOverlapContainsForward exercises the byte-precise forwarding helpers.
func TestOverlapContainsForward(t *testing.T) {
	st8 := &entry{inst: isa.StoreImm(0x100, 0x1122334455667788)}
	ld8 := &entry{inst: isa.Load(1, 0x100)}
	ld4 := &entry{inst: isa.Inst{Op: isa.OpLoad, Dst: 1, Src1: isa.RegNone, Src2: isa.RegNone, Addr: 0x104, Size: 4}}
	ldOther := &entry{inst: isa.Load(1, 0x108)}

	if !overlaps(st8, ld8) || !contains(st8, ld8) {
		t.Error("same-address same-size must forward")
	}
	if got := forwardBytes(st8.inst.Imm, 0x100, 0x100, 8); got != 0x1122334455667788 {
		t.Errorf("full forward = %#x", got)
	}
	if !contains(st8, ld4) {
		t.Error("8-byte store contains 4-byte load of its upper half")
	}
	if got := forwardBytes(st8.inst.Imm, 0x100, 0x104, 4); got != 0x11223344 {
		t.Errorf("partial forward = %#x, want upper half", got)
	}
	if overlaps(st8, ldOther) {
		t.Error("disjoint accesses must not overlap")
	}

	st4 := &entry{inst: isa.Inst{Op: isa.OpStore, Src1: isa.RegNone, Src2: isa.RegNone, Addr: 0x100, Size: 4, Imm: 7}}
	if contains(st4, ld8) {
		t.Error("4-byte store cannot fully cover an 8-byte load")
	}
	if !overlaps(st4, ld8) {
		t.Error("they do overlap")
	}
}

// TestOverlapSymmetry is a property test: overlaps is symmetric and
// contains implies overlaps.
func TestOverlapSymmetry(t *testing.T) {
	sizes := []uint8{1, 2, 4, 8}
	f := func(a, b uint16, si, sj uint8) bool {
		ea := &entry{inst: isa.Inst{Op: isa.OpStore, Src1: isa.RegNone, Src2: isa.RegNone,
			Addr: uint64(a), Size: sizes[int(si)%len(sizes)]}}
		eb := &entry{inst: isa.Inst{Op: isa.OpLoad, Src1: isa.RegNone, Src2: isa.RegNone,
			Addr: uint64(b), Size: sizes[int(sj)%len(sizes)]}}
		if overlaps(ea, eb) != overlaps(eb, ea) {
			return false
		}
		if contains(ea, eb) && !overlaps(ea, eb) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// lsqModel is a small core's memory window: an arena, an SQ and an LQ, and
// the dispatched, unretired loads and stores in program order. Its methods
// change the queues exactly as dispatch, retirement, the SB drain and a
// squash do.
type lsqModel struct {
	ar  arena
	sq  storeQueue
	lq  ring
	rob []int32
	seq uint64
}

const (
	lsqROB = 8
	lsqSQ  = 4
	lsqLQ  = 4
)

func newLSQModel() *lsqModel {
	return &lsqModel{ar: newArena(lsqROB + lsqSQ), sq: newStoreQueue(lsqSQ), lq: newRing(lsqLQ)}
}

// memInst draws a load or store of 1, 2, 4 or 8 bytes at any byte of one
// of four 32-byte blocks spaced 64 bytes apart, so that overlaps, partial
// overlaps, accesses that straddle two words and loads on a word no queued
// store covers are all common.
func memInst(op isa.Op, x uint64) isa.Inst {
	return isa.Inst{Op: op, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone,
		Addr: x%32 + x>>11%4*64, Size: uint8(1) << (x >> 5 % 4)}
}

func (m *lsqModel) dispatch(in isa.Inst) *entry {
	m.seq++
	i := m.ar.alloc()
	e := &m.ar.ents[i]
	e.inst, e.dynSeq = in, m.seq
	m.rob = append(m.rob, i)
	return e
}

func (m *lsqModel) dispatchLoad(x uint64) {
	e := m.dispatch(memInst(isa.OpLoad, x))
	e.age = int32(m.sq.allocs)
	m.lq.push(m.ar.refOf(m.rob[len(m.rob)-1]))
}

// dispatchStore gives one store in three an address register: with no
// producer (captured at dispatch), or produced by an older unretired load.
func (m *lsqModel) dispatchStore(x uint64) {
	in := memInst(isa.OpStore, x)
	var prod entryRef
	if x>>7%3 == 0 {
		in.Src2 = 5
		if k := int(x >> 9 % uint64(len(m.rob)+1)); k < len(m.rob) && m.ar.ents[m.rob[k]].isLoad() {
			prod = m.ar.refOf(m.rob[k])
		}
	}
	e := m.dispatch(in)
	e.src2Prod = prod
	e.age = int32(m.lq.pushes)
	i := m.rob[len(m.rob)-1]
	m.sq.alloc(m.ar.refOf(i), e)
}

// retire takes the oldest op out of the window: a load leaves the LQ, a
// store stays in the SQ as a retired (SB) store.
func (m *lsqModel) retire() {
	i := m.rob[0]
	m.rob = m.rob[1:]
	if m.ar.ents[i].isLoad() {
		m.lq.popFront()
		m.ar.release(i)
		return
	}
	m.ar.stat[i] = stRetired
}

// write drains the SB head, as storeWrote does.
func (m *lsqModel) write() {
	r := m.sq.oldest()
	m.sq.free(r)
	m.ar.release(r.index())
}

// squash flushes the window from position k, youngest first, as squashFrom
// does.
func (m *lsqModel) squash(k int) {
	for j := len(m.rob) - 1; j >= k; j-- {
		i := m.rob[j]
		if m.ar.ents[i].isStore() {
			m.sq.rollback(m.ar.refOf(i))
		}
		m.ar.release(i)
	}
	m.rob = m.rob[:k]
	for m.lq.len() > 0 && !m.ar.live(m.lq.at(m.lq.len()-1)) {
		m.lq.truncate(m.lq.len() - 1)
	}
}

// sqRefs returns the queued stores, oldest first.
func (m *lsqModel) sqRefs() []entryRef {
	var refs []entryRef
	for k, i := 0, m.sq.head; k < m.sq.count; k++ {
		refs = append(refs, m.sq.slots[i].ref)
		i = (i + 1) % len(m.sq.slots)
	}
	return refs
}

// bruteMatch is the search over every queued store, youngest first, that
// the age bound replaced: it skips stores not older than the load by
// dynSeq and reads each store's entry.
func (m *lsqModel) bruteMatch(l *entry) (match, unknown int32) {
	match, unknown = -1, -1
	refs := m.sqRefs()
	for k := len(refs) - 1; k >= 0; k-- {
		idx := refs[k].index()
		e := &m.ar.ents[idx]
		if e.dynSeq >= l.dynSeq {
			continue
		}
		if !m.ar.addrKnown(e) {
			if unknown < 0 {
				unknown = idx
			}
		} else if overlaps(e, l) {
			return idx, unknown
		}
	}
	return
}

// check compares the age-bounded searches with the dynSeq scans, and the
// store queue's word filter with a recount from the queued stores' entries.
// It returns how many loads the filter answered without walking although
// older stores were queued.
func (m *lsqModel) check(t *testing.T, where string) (filtered int) {
	t.Helper()
	refs := m.sqRefs()
	var words [sqWordBuckets]int
	prods := 0
	for _, r := range refs {
		e := &m.ar.ents[r.index()]
		for a := e.inst.Addr; a < e.inst.Addr+uint64(e.inst.EffSize()); a++ {
			if a == e.inst.Addr || a%8 == 0 {
				words[wordBucket(a>>3)]++
			}
		}
		if e.inst.Src2 != isa.RegNone && e.src2Prod != nilRef {
			prods++
		}
	}
	if words != *m.sq.words || prods != m.sq.prods {
		t.Fatalf("%s: word filter counts %v and %d producers, want %v and %d",
			where, *m.sq.words, m.sq.prods, words, prods)
	}
	retired := false
	for _, r := range refs {
		retired = retired || m.ar.stat[r.index()] == stRetired
	}
	if got := m.sq.anyRetiredUnwritten(&m.ar); got != retired {
		t.Fatalf("%s: anyRetiredUnwritten = %v, want %v", where, got, retired)
	}
	for seq := uint64(0); seq <= m.seq+1; seq++ {
		want := false
		for _, r := range refs {
			want = want || m.ar.ents[r.index()].dynSeq < seq
		}
		if got := m.sq.anyOlderUnwritten(&m.ar, seq); got != want {
			t.Fatalf("%s: anyOlderUnwritten(%d) = %v, want %v", where, seq, got, want)
		}
	}
	for _, i := range m.rob {
		e := &m.ar.ents[i]
		if e.isLoad() {
			if m.sq.prods == 0 && !m.sq.onWords(e.inst.Addr, e.inst.Addr+uint64(e.inst.EffSize())) &&
				int(e.age) > m.sq.allocs-m.sq.count {
				filtered++
			}
			gm, gu := m.sq.youngestOlderMatch(&m.ar, e)
			if wm, wu := m.bruteMatch(e); gm != wm || gu != wu {
				t.Fatalf("%s: load %d: youngestOlderMatch = (%d, %d), want (%d, %d)", where, e.dynSeq, gm, gu, wm, wu)
			}
			continue
		}
		want := m.lq.len()
		for k := 0; k < m.lq.len(); k++ {
			if m.ar.ents[m.lq.at(k).index()].dynSeq > e.dynSeq {
				want = k
				break
			}
		}
		if got := m.lq.since(e.age); got != want {
			t.Fatalf("%s: store %d: first younger LQ position %d, want %d", where, e.dynSeq, got, want)
		}
	}
	return filtered
}

// TestAgeBoundedSearchesMatchDynSeqScans runs random dispatch, issue,
// retire, SB-drain and squash sequences over a 4-entry SQ and LQ, wrapping
// both many times, and checks every age-bounded search against the dynSeq
// scan it replaced after every step: youngestOlderMatch's two results for
// every load in flight, the first younger LQ position for every store in
// flight, anyOlderUnwritten at every age, and anyRetiredUnwritten. After
// every step the word filter's counts must equal a recount, and the
// filter must have answered thousands of searches without walking.
func TestAgeBoundedSearchesMatchDynSeqScans(t *testing.T) {
	var searched, squashed, filtered int
	for seed := uint64(1); seed <= 200; seed++ {
		m := newLSQModel()
		x := seed
		for step := 0; step < 300; step++ {
			x = x*6364136223846793005 + 1442695040888963407
			r := x >> 33
			var what string
			switch r % 16 {
			case 0, 1, 2:
				if len(m.rob) == lsqROB || m.lq.full() {
					continue
				}
				m.dispatchLoad(r >> 4)
				what = "load"
			case 3, 4, 5:
				if len(m.rob) == lsqROB || m.sq.full() {
					continue
				}
				m.dispatchStore(r >> 4)
				what = "store"
			case 6, 7, 8:
				if len(m.rob) == 0 {
					continue
				}
				m.ar.stat[m.rob[int(r>>4)%len(m.rob)]] = stDone
				what = "issue"
			case 9, 10:
				if len(m.rob) == 0 {
					continue
				}
				m.retire()
				what = "retire"
			case 11, 12, 13:
				if m.sq.empty() || m.ar.stat[m.sq.oldest().index()] != stRetired {
					continue
				}
				m.write()
				what = "write"
			default:
				if len(m.rob) == 0 {
					continue
				}
				m.squash(int(r>>4) % len(m.rob))
				squashed++
				what = "squash"
			}
			filtered += m.check(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
			searched++
		}
	}
	if searched < 10000 || squashed < 1000 || filtered < 5000 {
		t.Fatalf("only %d checked steps, %d squashes and %d filtered searches", searched, squashed, filtered)
	}
	t.Logf("%d checked steps, %d squashes, %d filtered searches", searched, squashed, filtered)
}

// BenchmarkStoreQueueSearch is the load's SQ/SB snoop in a full 56-entry
// queue, the load the 29th op. In "filtered" no queued store is on the
// load's word, and the word filter answers without walking; in
// "oldest-match" the oldest store is, and the search walks the 28 older
// stores to find it. The CI perf-guard pins both at zero allocs/op.
func BenchmarkStoreQueueSearch(b *testing.B) {
	const n = 56
	for _, bc := range []struct {
		name  string
		first uint64 // the oldest store's address
	}{{"filtered", 64}, {"oldest-match", 0x20000}} {
		b.Run(bc.name, func(b *testing.B) {
			h := newSQHarness(n)
			oldest := h.addStore(1, bc.first)
			for i := uint64(2); i <= n; i++ {
				h.addStore(i, i*64)
			}
			ld := &entry{inst: isa.Load(1, 0x20000), dynSeq: n/2 + 1, age: n / 2}
			if filtered := !h.q.onWords(0x20000, 0x20008); filtered != (bc.first != 0x20000) {
				b.Fatalf("word filter answers %v", filtered)
			}
			if m, _ := h.q.youngestOlderMatch(&h.ar, ld); (m == oldest) != (bc.first == 0x20000) {
				b.Fatalf("search returned %d", m)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				searchSink, _ = h.q.youngestOlderMatch(&h.ar, ld)
			}
		})
	}
}

var searchSink int32
