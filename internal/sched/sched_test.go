package sched

import (
	"slices"
	"testing"
	"testing/quick"
)

// batchFunc adapts a function to the Handler interface for tests.
type batchFunc func([]Event)

func (f batchFunc) HandleBatch(evs []Event) { f(evs) }

// collect returns a handler appending every delivered event's Val to out.
func collect(out *[]uint64) Handler {
	return batchFunc(func(evs []Event) {
		for _, ev := range evs {
			*out = append(*out, ev.Val)
		}
	})
}

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue()
	var order []uint64
	q.Schedule(Event{Cycle: 10, Val: 2})
	q.Schedule(Event{Cycle: 5, Val: 1})
	q.Schedule(Event{Cycle: 10, Val: 3}) // same cycle: FIFO
	q.Schedule(Event{Cycle: 20, Val: 4})
	q.RunUntil(10, collect(&order))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if q.Len() != 1 {
		t.Fatalf("pending = %d, want 1", q.Len())
	}
	next, ok := q.NextCycle()
	if !ok || next != 20 {
		t.Fatalf("next = %d ok=%v", next, ok)
	}
	q.RunUntil(100, collect(&order))
	if len(order) != 4 || order[3] != 4 {
		t.Fatalf("final order = %v", order)
	}
}

func TestEventQueueScheduleDuringRun(t *testing.T) {
	q := NewEventQueue()
	var fired []uint64
	h := batchFunc(func(evs []Event) {
		for _, ev := range evs {
			fired = append(fired, ev.Val)
			if ev.Val == 1 {
				// Handling may schedule further events; a same-cycle one
				// must still fire within this RunUntil, after the batch.
				q.Schedule(Event{Cycle: 1, Val: 2})
				q.Schedule(Event{Cycle: 5, Val: 3})
			}
		}
	})
	q.Schedule(Event{Cycle: 1, Val: 1})
	q.RunUntil(1, h)
	if len(fired) != 2 || fired[1] != 2 {
		t.Fatalf("nested same-cycle event not fired in order: %v", fired)
	}
	q.RunUntil(5, h)
	if len(fired) != 3 {
		t.Fatalf("future nested event lost: %v", fired)
	}
}

func TestEventQueueBatchView(t *testing.T) {
	// A drain hands the handler one contiguous slice of all due events
	// rather than one call per message.
	q := NewEventQueue()
	for i := uint64(1); i <= 6; i++ {
		q.Schedule(Event{Cycle: i % 3, Val: i})
	}
	var calls int
	var got []uint64
	q.RunUntil(2, batchFunc(func(evs []Event) {
		calls++
		for _, ev := range evs {
			got = append(got, ev.Val)
		}
	}))
	if calls != 1 {
		t.Fatalf("drain made %d handler calls, want 1 batch", calls)
	}
	// Cycle 0: vals 3,6; cycle 1: 1,4; cycle 2: 2,5 — insertion order within
	// each cycle.
	want := []uint64{3, 6, 1, 4, 2, 5}
	if len(got) != len(want) {
		t.Fatalf("batch = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch = %v, want %v", got, want)
		}
	}
}

// TestEventQueueMonotonic is a property test: events always fire in
// non-decreasing cycle order regardless of insertion order.
func TestEventQueueMonotonic(t *testing.T) {
	f := func(cycles []uint16) bool {
		q := NewEventQueue()
		var fired []uint64
		for _, c := range cycles {
			q.Schedule(Event{Cycle: uint64(c), Val: uint64(c)})
		}
		q.RunUntil(1<<20, collect(&fired))
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(cycles)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClockTickAndDeliver(t *testing.T) {
	c := NewClock(2)
	if c.Now() != 0 {
		t.Fatalf("new clock at cycle %d", c.Now())
	}
	var fired []uint64
	h := collect(&fired)
	c.Schedule(Event{Cycle: 0, Val: 0})
	c.Schedule(Event{Cycle: 2, Val: 2})
	c.Deliver(h) // cycle 0: fires the first event only
	c.Tick()
	c.Deliver(h) // cycle 1: nothing due
	if len(fired) != 1 || fired[0] != 0 {
		t.Fatalf("fired = %v, want [0]", fired)
	}
	c.Tick()
	c.Deliver(h) // cycle 2
	if len(fired) != 2 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [0 2]", fired)
	}
}

func TestClockHorizon(t *testing.T) {
	c := NewClock(3)
	// All wakes Never, no events: horizon is the bound.
	if h := c.Horizon(100); h != 100 {
		t.Fatalf("empty horizon = %d, want 100", h)
	}
	c.SetWake(0, 40)
	c.SetWake(1, 25)
	if h := c.Horizon(100); h != 25 {
		t.Fatalf("wake horizon = %d, want 25", h)
	}
	c.Schedule(Event{Cycle: 17})
	if h := c.Horizon(100); h != 17 {
		t.Fatalf("event horizon = %d, want 17", h)
	}
	// The bound clamps everything.
	if h := c.Horizon(10); h != 10 {
		t.Fatalf("bounded horizon = %d, want 10", h)
	}
	// A horizon never moves behind the clock.
	c.AdvanceTo(30)
	if h := c.Horizon(100); h != 30 {
		t.Fatalf("past horizon = %d, want clamped to now=30", h)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock(1)
	c.AdvanceTo(10)
	if c.Now() != 10 {
		t.Fatalf("now = %d, want 10", c.Now())
	}
	c.AdvanceTo(5) // backwards: ignored
	if c.Now() != 10 {
		t.Fatalf("now after backwards AdvanceTo = %d, want 10", c.Now())
	}
	c.Tick()
	if c.Now() != 11 {
		t.Fatalf("now after Tick = %d, want 11", c.Now())
	}
}

// TestClockResetAnswersAsNew: a clock reset with events pending in buckets
// and in the heap, wakes registered and the window moved on is back at cycle
// 0 with nothing pending, and then delivers a schedule exactly as a new
// clock does.
func TestClockResetAnswersAsNew(t *testing.T) {
	run := func(c *Clock) []uint64 {
		var fired []uint64
		h := collect(&fired)
		for i := uint64(0); i < 200; i++ {
			c.Schedule(Event{Cycle: c.Now() + i*i%700, Val: i})
			c.SetWake(int(i%2), c.Now()+i)
			fired = append(fired, c.Horizon(Never))
			c.Deliver(h)
			c.Tick()
		}
		return fired
	}
	c := NewClock(2)
	run(c)
	if c.Len() == 0 {
		t.Fatal("no event pending before the reset: the test checks nothing")
	}
	c.Reset()
	if _, ok := c.NextCycle(); ok || c.Len() != 0 || c.Now() != 0 || c.Horizon(Never) != Never {
		t.Fatalf("reset clock: %d pending, now %d, horizon %d", c.Len(), c.Now(), c.Horizon(Never))
	}
	if got, want := run(c), run(NewClock(2)); !slices.Equal(got, want) {
		t.Errorf("a reset clock delivers differently from a new one:\nreset: %v\nnew:   %v", got, want)
	}
}

func TestScheduleDrainAllocFree(t *testing.T) {
	// Steady-state scheduling and draining must not allocate: the node
	// slab, the heap and the batch buffer are reused once warmed up.
	q := NewEventQueue()
	h := batchFunc(func([]Event) {})
	// Warm up the backing arrays.
	for i := uint64(0); i < 64; i++ {
		q.Schedule(Event{Cycle: i})
	}
	q.RunUntil(1<<30, h)
	cycle := uint64(1 << 30)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := uint64(0); i < 32; i++ {
			q.Schedule(Event{Cycle: cycle + i})
		}
		q.RunUntil(cycle+32, h)
		cycle += 64
	})
	if allocs != 0 {
		t.Fatalf("schedule+drain allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkEventQueueScheduleDrain is the NoC delivery path: schedule a
// burst of events and drain them as one batch. Four events per burst land
// beyond the calendar's window, so the heap and the migration into buckets
// run in steady state too. The CI perf-guard pins its allocs/op at zero.
func BenchmarkEventQueueScheduleDrain(b *testing.B) {
	q := NewEventQueue()
	h := batchFunc(func([]Event) {})
	cycle := uint64(1 << 40)
	burst := func() {
		for j := uint64(0); j < 32; j++ {
			q.Schedule(Event{Cycle: cycle + j})
		}
		for j := uint64(0); j < 4; j++ {
			q.Schedule(Event{Cycle: cycle + 2*window + j})
		}
		q.RunUntil(cycle+32, h)
		cycle += 64
	}
	// Warm the node slab, the heap and the batch buffer.
	for i := 0; i < 64; i++ {
		burst()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
}

// refQueue is the binary (cycle, seq) min-heap the calendar replaced, kept
// as the reference order for TestCalendarMatchesHeap.
type refQueue struct {
	h     []Event
	seq   uint64
	batch []Event
}

func (q *refQueue) Schedule(ev Event) {
	q.seq++
	ev.seq = q.seq
	q.h = append(q.h, ev)
	for i := len(q.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *refQueue) Len() int { return len(q.h) }

func (q *refQueue) NextCycle() (uint64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].Cycle, true
}

func (q *refQueue) RunUntil(cycle uint64, h Handler) {
	for len(q.h) > 0 && q.h[0].Cycle <= cycle {
		q.batch = q.batch[:0]
		for len(q.h) > 0 && q.h[0].Cycle <= cycle {
			q.batch = append(q.batch, q.pop())
		}
		h.HandleBatch(q.batch)
	}
}

func (q *refQueue) less(i, j int) bool {
	if q.h[i].Cycle != q.h[j].Cycle {
		return q.h[i].Cycle < q.h[j].Cycle
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *refQueue) pop() Event {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	for i := 0; ; {
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

// queue is the API both the calendar and the reference heap implement.
type queue interface {
	Schedule(Event)
	RunUntil(uint64, Handler)
	Len() int
	NextCycle() (uint64, bool)
}

// diffSide drives one queue. Its handler logs every batch and schedules a
// child for some events, at a distance drawn from the event's id: two
// queues that deliver identically receive identical schedules.
type diffSide struct {
	q       queue
	now     uint64 // the bound of the RunUntil in progress
	ids     uint64
	batches [][]uint64
}

// maxDiffEvents bounds a stream's events, so that every drain ends.
const maxDiffEvents = 3000

func (s *diffSide) schedule(cycle uint64) {
	s.ids++
	s.q.Schedule(Event{Cycle: cycle, Val: s.ids})
}

func (s *diffSide) HandleBatch(evs []Event) {
	ids := make([]uint64, len(evs))
	for i, ev := range evs {
		ids[i] = ev.Val
		if x := mix(ev.Val); x%3 == 0 && s.ids < maxDiffEvents {
			s.schedule(at(s.now, x>>2))
		}
	}
	s.batches = append(s.batches, ids)
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// at draws a cycle relative to now from x: now itself, a short hop, a spot
// inside the window or at its edge, up to four windows ahead, or a few
// cycles into the past.
func at(now, x uint64) uint64 {
	r := x >> 3
	switch x % 8 {
	case 0:
		return now
	case 1:
		return now + 1 + r%8
	case 2, 3:
		return now + r%window
	case 4:
		return now + window - 2 + r%5
	case 5, 6:
		return now + r%(4*window)
	default:
		if back := 1 + r%16; back <= now {
			return now - back
		}
		return 0
	}
}

// TestCalendarMatchesHeap drives the calendar and the reference heap with
// the same random streams: per-cycle drains, jumps longer than the window
// (the skip clock), drains at the next pending cycle (Machine.finish),
// bounds behind earlier ones, and events scheduled at the current cycle,
// ahead of it and before it, from outside and inside the handler. Both must
// deliver the same events in the same batches, and agree on Len and
// NextCycle after every call.
func TestCalendarMatchesHeap(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		cal := &diffSide{q: NewEventQueue()}
		ref := &diffSide{q: &refQueue{}}
		sides := []*diffSide{cal, ref}
		now := uint64(0)
		if seed%2 == 1 {
			now = 1<<40 + seed
		}
		rng := mix(seed)
		draw := func() uint64 { rng = mix(rng); return rng }
		check := func(step int, what string) {
			t.Helper()
			if cal.q.Len() != ref.q.Len() {
				t.Fatalf("seed %d step %d %s: Len %d, heap %d", seed, step, what, cal.q.Len(), ref.q.Len())
			}
			c1, ok1 := cal.q.NextCycle()
			c2, ok2 := ref.q.NextCycle()
			if c1 != c2 || ok1 != ok2 {
				t.Fatalf("seed %d step %d %s: NextCycle (%d, %v), heap (%d, %v)", seed, step, what, c1, ok1, c2, ok2)
			}
			if !equalBatches(cal.batches, ref.batches) {
				t.Fatalf("seed %d step %d %s: delivered\n%v\nheap delivered\n%v", seed, step, what, cal.batches, ref.batches)
			}
		}
		run := func(step int, bound uint64, what string) {
			for _, s := range sides {
				s.now = bound
				s.q.RunUntil(bound, s)
			}
			check(step, what)
		}
		for step := 0; step < 400 && cal.ids < maxDiffEvents; step++ {
			for k := draw() % 4; k > 0; k-- {
				c := at(now, draw())
				for _, s := range sides {
					s.schedule(c)
				}
			}
			check(step, "schedule")
			switch r := draw() % 20; {
			case r < 12:
				now++
				run(step, now, "tick")
			case r < 15:
				now += 1 + draw()%16
				run(step, now, "hop")
			case r < 17:
				now += window + draw()%(3*window)
				run(step, now, "jump")
			case r < 18:
				if next, ok := ref.q.NextCycle(); ok {
					run(step, next, "next")
				}
			default:
				run(step, now-draw()%(now/2+1), "behind")
			}
		}
		for step := 0; ref.q.Len() > 0; step++ {
			next, _ := ref.q.NextCycle()
			run(step, next, "finish")
		}
		if len(ref.batches) < 100 {
			t.Fatalf("seed %d: only %d batches delivered", seed, len(ref.batches))
		}
	}
}

func equalBatches(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
