// Package sched provides the simulation's two-level clock: a deterministic
// event queue (the timing spine of the memory system, formerly part of
// internal/noc) plus a Clock that owns the current cycle and the per-core
// quiescence wake registrations. Level one is the ordinary cycle-by-cycle
// tick; level two lets the machine jump the cycle straight to the next
// pending event or core wake when every core reports it cannot make
// progress, skipping dead cycles without changing a single simulated one.
package sched

import "math/bits"

// Never marks a core with no timed wake-up: only a memory-system event can
// unblock it.
const Never = ^uint64(0)

// Kind tags an event's meaning. The values are opaque to this package; the
// handler that drains the queue interprets them.
type Kind uint8

// Event is one scheduled memory-system message, a plain value: no callback
// closure, so scheduling never allocates. The payload fields mean whatever
// the Kind's handler says they mean (a line address, a data value, an
// in-flight-instruction reference). Events scheduled for the same cycle are
// delivered in insertion order, keeping the simulation deterministic.
type Event struct {
	Cycle uint64
	seq   uint64
	Kind  Kind
	Evict bool
	Size  uint8
	Core  int32
	Addr  uint64
	Val   uint64
	Ref   uint64
}

// Handler consumes a batch of due events, in delivery order. A drain hands
// the handler one slice view per flush instead of one callback invocation
// per message; the slice is owned by the queue and valid only for the call.
type Handler interface {
	HandleBatch([]Event)
}

// window is the calendar's span: one bucket for each of the window cycles
// from base. A power of two, so a cycle's bucket is its low bits. Table
// III's latencies put almost every event fewer than window cycles ahead.
const window = 256

// node is one calendar slot in the node slab: an event and the slab index of
// the next event in its bucket (or on the free list). A bucket's last node
// links back to its first. Index 0 is unused, so 0 means "none".
type node struct {
	ev   Event
	next int32
}

// EventQueue is a deterministic queue of events ordered by (cycle, insertion
// sequence). It is the spine of the memory-system timing model. Most events
// sit in a calendar: one FIFO bucket per cycle for the window cycles from
// base, the oldest undelivered cycle. A min-heap holds the rest: events at or
// beyond base+window, and events scheduled before base. Scheduling and
// draining touch no interface boxes and allocate nothing in steady state.
//
// The order is exact. A bucket receives events in insertion order, and when
// base advances, the heap events the window now covers move into their
// buckets before anything else can be appended there, so each bucket stays
// in sequence order. Events before base precede every bucket.
//
// The zero value is not ready for use; call NewEventQueue (or NewClock).
// Clock.Reset empties a queue for reuse.
type EventQueue struct {
	base uint64
	next uint64 // earliest pending cycle, Never when empty
	// tails holds each bucket's last node, which links to its first: one
	// index per bucket keeps the calendar at 1 KiB per machine. An entry is
	// meaningful only while its occupancy bit is set.
	tails  [window]int32
	occ    [window / 64]uint64 // one bit per non-empty bucket
	nodes  []node
	free   int32 // head of the free node list
	queued int   // events in buckets
	h      []Event
	seq    uint64
	batch  []Event
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue {
	q := new(EventQueue)
	q.reset()
	return q
}

// reset empties the queue: the calendar's occupancy bits, base, next, seq
// and free list start over, and the node slab, heap and batch keep their
// storage at length 0. Nothing reads a bucket tail without its occupancy
// bit, a node past the slab's length, or an event past the heap's or the
// batch's, so an emptied queue schedules and delivers exactly as a new one.
func (q *EventQueue) reset() {
	*q = EventQueue{next: Never, nodes: q.nodes[:0], h: q.h[:0], batch: q.batch[:0]}
}

// Schedule enqueues the event for delivery at ev.Cycle.
func (q *EventQueue) Schedule(ev Event) {
	q.seq++
	ev.seq = q.seq
	if ev.Cycle-q.base < window {
		q.insert(ev)
	} else {
		q.h = append(q.h, ev)
		q.siftUp(len(q.h) - 1)
	}
	if ev.Cycle < q.next {
		q.next = ev.Cycle
	}
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return q.queued + len(q.h) }

// NextCycle returns the cycle of the earliest pending event; ok is false if
// the queue is empty.
func (q *EventQueue) NextCycle() (cycle uint64, ok bool) {
	if q.Len() == 0 {
		return 0, false
	}
	return q.next, true
}

// RunUntil delivers, in order, every event scheduled at or before cycle:
// due events are drained into a reusable buffer and handed to h as one
// batch. Handling may schedule further events; any that fall due are
// drained in a following batch, preserving the (cycle, seq) firing order a
// callback-per-message queue would have produced.
func (q *EventQueue) RunUntil(cycle uint64, h Handler) {
	for q.next <= cycle {
		q.batch = q.batch[:0]
		q.collect(cycle)
		h.HandleBatch(q.batch)
	}
	// Nothing at or before cycle is pending, so the window may start after
	// it and cover the cycles the caller schedules into next.
	if cycle >= q.base && cycle != Never {
		q.advance(cycle + 1)
	}
}

// collect appends every pending event at or before cycle to the batch, in
// (cycle, seq) order, and recomputes next.
func (q *EventQueue) collect(cycle uint64) {
	// Events before base are in the heap, and precede every bucket.
	for len(q.h) > 0 && q.h[0].Cycle < q.base && q.h[0].Cycle <= cycle {
		q.batch = append(q.batch, q.pop())
	}
	first := q.firstBucket()
	for {
		if first <= cycle {
			q.take(first)
			q.advance(first + 1)
			first = q.firstBucket()
		} else if len(q.h) > 0 && q.h[0].Cycle <= cycle {
			// Only with every bucket empty can a heap event beyond the
			// window be due: jump the window to it.
			q.advance(q.h[0].Cycle)
			first = q.base
		} else {
			break
		}
	}
	q.next = first
	if len(q.h) > 0 && q.h[0].Cycle < first {
		q.next = q.h[0].Cycle
	}
}

// advance moves base forward to b, every event before b having been
// delivered, and migrates the heap events the window now covers into their
// buckets, in (cycle, seq) order. No heap event is then before b.
func (q *EventQueue) advance(b uint64) {
	q.base = b
	for len(q.h) > 0 && q.h[0].Cycle-b < window {
		q.insert(q.pop())
	}
}

// insert appends ev to its cycle's bucket.
func (q *EventQueue) insert(ev Event) {
	n := q.free
	if n != 0 {
		q.free = q.nodes[n].next
		q.nodes[n].ev = ev
	} else {
		if len(q.nodes) == 0 {
			q.nodes = append(q.nodes, node{})
		}
		n = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{ev: ev})
	}
	i := ev.Cycle & (window - 1)
	if w, bit := i>>6, uint64(1)<<(i&63); q.occ[w]&bit == 0 {
		q.occ[w] |= bit
		q.nodes[n].next = n
	} else {
		t := q.tails[i]
		q.nodes[n].next = q.nodes[t].next
		q.nodes[t].next = n
	}
	q.tails[i] = n
	q.queued++
}

// take appends bucket c's events to the batch and frees its nodes.
func (q *EventQueue) take(c uint64) {
	i := c & (window - 1)
	tail := q.tails[i]
	head := q.nodes[tail].next
	for n := head; ; n = q.nodes[n].next {
		q.batch = append(q.batch, q.nodes[n].ev)
		q.queued--
		if n == tail {
			break
		}
	}
	q.nodes[tail].next = q.free
	q.free = head
	q.occ[i>>6] &^= 1 << (i & 63)
}

// firstBucket returns the cycle of the earliest non-empty bucket, or Never.
// Bucket cycles lie in [base, base+window), so the first occupied bucket in
// ring order from base's bucket is the earliest.
func (q *EventQueue) firstBucket() uint64 {
	if q.queued == 0 {
		return Never
	}
	s := q.base & (window - 1)
	w := s >> 6
	word := q.occ[w] &^ (1<<(s&63) - 1)
	for k := 0; k <= len(q.occ); k++ {
		if word != 0 {
			i := w<<6 | uint64(bits.TrailingZeros64(word))
			return q.base + (i-s)&(window-1)
		}
		w = (w + 1) % uint64(len(q.occ))
		word = q.occ[w]
	}
	panic("sched: queued events but no occupied bucket")
}

// less orders the heap by (cycle, insertion sequence).
func (q *EventQueue) less(i, j int) bool {
	if q.h[i].Cycle != q.h[j].Cycle {
		return q.h[i].Cycle < q.h[j].Cycle
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *EventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *EventQueue) pop() Event {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.less(l, small) {
			small = l
		}
		if r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			return top
		}
		q.h[i], q.h[small] = q.h[small], q.h[i]
		i = small
	}
}

// Clock is the two-level simulation clock: the current cycle, the event
// queue, and one wake registration per core. The machine refreshes every
// wake each Step; Horizon is meaningful only right after a fully quiescent
// Step, when all registrations describe the current cycle's state.
type Clock struct {
	EventQueue
	now   uint64
	wakes []uint64
}

// NewClock returns a clock at cycle 0 for the given core count, with every
// wake registration cleared to Never.
func NewClock(cores int) *Clock {
	c := &Clock{wakes: make([]uint64, cores)}
	c.Reset()
	return c
}

// Reset returns the clock to the state NewClock builds, for the same core
// count: cycle 0, an empty queue and every wake cleared to Never. It keeps
// the queue's storage and the wake table.
func (c *Clock) Reset() {
	*c = Clock{EventQueue: c.EventQueue, wakes: c.wakes}
	c.EventQueue.reset()
	for i := range c.wakes {
		c.wakes[i] = Never
	}
}

// Now returns the current cycle.
func (c *Clock) Now() uint64 { return c.now }

// Deliver hands h every event scheduled at or before the current cycle.
func (c *Clock) Deliver(h Handler) { c.RunUntil(c.now, h) }

// Tick advances the clock one cycle.
func (c *Clock) Tick() { c.now++ }

// SetWake records core i's quiescence report: the earliest future cycle at
// which it can do timed work, or Never when it is purely event-blocked.
func (c *Clock) SetWake(i int, wake uint64) { c.wakes[i] = wake }

// Horizon returns the earliest cycle in [now, bound] at which anything can
// happen: the next pending event or the earliest registered core wake.
// When neither falls before bound it returns bound itself — with every core
// quiescent the machine may then advance the clock straight there.
func (c *Clock) Horizon(bound uint64) uint64 {
	h := bound
	for _, w := range c.wakes {
		if w < h {
			h = w
		}
	}
	if next, ok := c.NextCycle(); ok && next < h {
		h = next
	}
	if h < c.now {
		h = c.now
	}
	return h
}

// AdvanceTo jumps the clock forward to target; targets at or before the
// current cycle are ignored.
func (c *Clock) AdvanceTo(target uint64) {
	if target > c.now {
		c.now = target
	}
}
