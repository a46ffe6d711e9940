package core

import "sesa/internal/isa"

// storeQueue is the combined store queue + store buffer: a single circular
// structure where the retired/non-retired division is implicit in each
// entry's status (Section II-A). A store occupies its slot from dispatch
// until its L1 write completes; the sorting bit per slot flips on
// wrap-around so that a (slot, sorting-bit) key uniquely names a live store.
//
// Every slot from head to tail is live by construction (the queue releases
// a slot before the arena recycles the entry), and the queued stores are in
// dynSeq order, the retired ones (the SB portion) an oldest prefix. A slot
// carries copies of what the load search tests, so the search reads no
// entry.
//
// Occupancy changes only at dispatch (alloc), squash (rollback) — both
// progress in the owning tick — or a store's L1-write event callback
// (free). Predicates like anyOlderUnwritten are therefore constant across
// a skipped quiescent range, which the two-level clock depends on.
type storeQueue struct {
	slots []sqSlot
	head  int // oldest occupied slot
	tail  int // next free slot
	count int
	// allocs counts allocations net of rollbacks. A load records it at
	// dispatch as its age: the number of stores older than it.
	allocs int

	// words counts the queued stores on each hashed 8-byte word, a store
	// once on every word it covers, and prods the queued stores whose slot
	// carries an address producer: the word filter youngestOlderMatch
	// consults before it walks. A count never exceeds twice the queued
	// stores, which fit in an int.
	words *[sqWordBuckets]int
	prods int
}

// sqWordBuckets sizes the store queue's word filter.
const sqWordBuckets = 256

// wordBucket hashes an 8-byte word number to its filter counter. The
// multiplicative hash spreads the page-strided words that a mask of the low
// bits would pile into one counter.
func wordBucket(w uint64) uint8 { return uint8((w * 0x9e3779b97f4a7c15) >> 56) }

// onWords reports whether a queued store may cover a word of the bytes
// [lo, hi): false means none does.
func (q *storeQueue) onWords(lo, hi uint64) bool {
	for w, last := lo>>3, (hi-1)>>3; w <= last; w++ {
		if q.words[wordBucket(w)] != 0 {
			return true
		}
	}
	return false
}

// sqSlot is one SQ/SB slot: the store's arena ref (nilRef when free), the
// slot's sorting bit, and copies of the store's address, size and address
// producer, taken at alloc. src2Prod is written only at dispatch, before
// alloc, so the copy never goes stale.
type sqSlot struct {
	ref      entryRef
	addrProd entryRef
	addr     uint64
	size     uint8
	sort     bool
}

// resize empties the queue at the given capacity, reusing its storage when
// that is large enough: every slot free, with its sorting bit clear, and
// every word count zero. A queue that is already empty has all-zero counts.
func (q *storeQueue) resize(capacity int) {
	words := q.words
	if words == nil {
		words = new([sqWordBuckets]int)
	} else if q.count > 0 {
		clear(words[:])
	}
	*q = storeQueue{slots: sized(q.slots, capacity), words: words}
	clear(q.slots)
}

func (q *storeQueue) full() bool  { return q.count == len(q.slots) }
func (q *storeQueue) empty() bool { return q.count == 0 }

// alloc assigns the next slot to store e and stamps its key.
func (q *storeQueue) alloc(r entryRef, e *entry) {
	if q.full() {
		panic("core: store queue overflow")
	}
	s := &q.slots[q.tail]
	e.sqSlot = q.tail
	e.sqKey = key{slot: q.tail, sort: s.sort}
	s.ref = r
	s.addrProd = nilRef
	if e.inst.Src2 != isa.RegNone {
		s.addrProd = e.src2Prod
	}
	s.addr, s.size = e.inst.Addr, e.inst.EffSize()
	q.countStore(s, 1)
	if q.tail++; q.tail == len(q.slots) {
		q.tail = 0
	}
	q.count++
	q.allocs++
}

// countStore adds d to the filter counts of the store in slot s: to the
// counter of every word it covers (one for an aligned access, two for a
// misaligned one), and to prods when it has an address producer.
func (q *storeQueue) countStore(s *sqSlot, d int) {
	for w, last := s.addr>>3, (s.addr+uint64(s.size)-1)>>3; w <= last; w++ {
		q.words[wordBucket(w)] += d
	}
	if s.addrProd != nilRef {
		q.prods += d
	}
}

// oldest returns the store ref at the head of the queue, or nilRef.
func (q *storeQueue) oldest() entryRef {
	if q.count == 0 {
		return nilRef
	}
	return q.slots[q.head].ref
}

// free releases the head slot after its store's L1 write, flipping the
// sorting bit for the slot's next occupant.
func (q *storeQueue) free(r entryRef) {
	s := &q.slots[q.head]
	if s.ref != r {
		panic("core: store buffer freed out of order")
	}
	q.countStore(s, -1)
	s.ref = nilRef
	s.sort = !s.sort
	if q.head++; q.head == len(q.slots) {
		q.head = 0
	}
	q.count--
}

// rollback removes a squashed, non-retired store. Squashes flush a
// contiguous youngest suffix of the ROB, so the store must be the youngest
// allocation.
func (q *storeQueue) rollback(r entryRef) {
	prev := q.tail - 1
	if prev < 0 {
		prev = len(q.slots) - 1
	}
	s := &q.slots[prev]
	if s.ref != r {
		panic("core: store queue rollback out of order")
	}
	q.countStore(s, -1)
	s.ref = nilRef
	q.tail = prev
	q.count--
	q.allocs--
}

// present reports whether the store named by k is still in the SQ/SB; this
// is the direct-slot sorting-bit check the retiring SLF load performs
// (Section IV-B2).
func (q *storeQueue) present(a *arena, k key) bool {
	r := q.slots[k.slot].ref
	return r != nilRef && a.ents[r.index()].sqKey == k
}

// anyOlderUnwritten reports whether any store older than dynSeq has not yet
// written to the L1. Fences and the 370-SLFSpec retire rule use it. An
// in-queue store has by definition not written (its slot is freed at the
// write), and the head is the oldest, so only its age matters.
func (q *storeQueue) anyOlderUnwritten(a *arena, dynSeq uint64) bool {
	return q.count > 0 && a.ents[q.slots[q.head].ref.index()].dynSeq < dynSeq
}

// anyRetiredUnwritten reports whether the store-buffer portion is non-empty:
// a retired store that has not yet written to the L1. Retired stores are the
// queue's oldest prefix, so the head tells.
func (q *storeQueue) anyRetiredUnwritten(a *arena) bool {
	return q.count > 0 && a.stat[q.slots[q.head].ref.index()] == stRetired
}

// youngestOlderMatch returns the youngest store older than the load that
// overlaps it, and separately the youngest older store whose address is
// still unknown. Either may be -1. This is the SQ/SB snoop every load
// already does in a conventional core — the snoop our mechanism reuses to
// copy the key — bounded, as a real LSQ bounds it, by the load's age.
//
// The stores older than the load are the first age − (allocs − count)
// slots from the head: every store the queue has freed since the load's
// dispatch was older than it (the load has not retired, so no younger store
// has), and every store rolled back since was younger (a squash that
// flushed an older store would have flushed the load). The walk visits
// them youngest first.
//
// The word filter answers without walking when no queued store can match:
// a store that overlaps the load shares a word with it, and with no
// address producer queued no store's address is unknown. Counting the
// younger stores too only makes the filter walk when it need not.
func (q *storeQueue) youngestOlderMatch(a *arena, l *entry) (match, unknown int32) {
	match, unknown = -1, -1
	lo, hi := l.inst.Addr, l.inst.Addr+uint64(l.inst.EffSize())
	if q.prods == 0 && !q.onWords(lo, hi) {
		return
	}
	n := int(l.age) - (q.allocs - q.count)
	i := q.head + n
	if i >= len(q.slots) {
		i -= len(q.slots)
	}
	for ; n > 0; n-- {
		if i == 0 {
			i = len(q.slots)
		}
		i--
		s := &q.slots[i]
		// The address is unknown while its producer is live and not done
		// (arena.addrKnown); a stale producer retired.
		if p := s.addrProd; p != nilRef && a.gens[p.index()] == p.gen() && a.stat[p.index()] < stDone {
			if unknown < 0 {
				unknown = s.ref.index()
			}
		} else if s.addr < hi && lo < s.addr+uint64(s.size) {
			return s.ref.index(), unknown
		}
	}
	return
}
