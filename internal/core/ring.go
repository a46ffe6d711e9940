package core

// ring is a fixed-capacity FIFO of entry refs — the ROB and LQ layout.
// Dispatch pushes at the tail, retirement pops at the head, and a squash
// truncates the youngest suffix; positions of surviving entries never move,
// which is what lets the issue stage's ready set name ROB entries by ring
// position.
type ring struct {
	buf   []entryRef
	head  int
	count int
	// pushes counts pushes net of truncations. A store records the LQ's
	// count at dispatch as its age (see since).
	pushes int
}

func newRing(capacity int) ring {
	return ring{buf: make([]entryRef, capacity)}
}

// reset empties the ring, keeping its buffer.
func (r *ring) reset() {
	*r = ring{buf: r.buf}
	clear(r.buf)
}

func (r *ring) len() int   { return r.count }
func (r *ring) full() bool { return r.count == len(r.buf) }

// pos returns the buffer position of the k-th oldest ref.
func (r *ring) pos(k int) int {
	p := r.head + k
	if p >= len(r.buf) {
		p -= len(r.buf)
	}
	return p
}

// at returns the k-th oldest ref.
func (r *ring) at(k int) entryRef { return r.buf[r.pos(k)] }

// push appends v at the tail and returns its buffer position.
func (r *ring) push(v entryRef) int {
	if r.full() {
		panic("core: ring overflow")
	}
	p := r.pos(r.count)
	r.buf[p] = v
	r.count++
	r.pushes++
	return p
}

func (r *ring) popFront() {
	if r.count == 0 {
		panic("core: ring underflow")
	}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.count--
}

// truncate keeps the oldest n entries, dropping the youngest suffix.
func (r *ring) truncate(n int) {
	if n > r.count {
		panic("core: ring truncate grows")
	}
	r.pushes -= r.count - n
	r.count = n
}

// since returns the offset from the head of the first entry pushed after
// the first age pushes, for a caller that knows every popped entry was
// among those age: pushes − count entries have left the head, so that entry
// sits age − (pushes − count) from it, in [0, len()].
func (r *ring) since(age int32) int { return int(age) - (r.pushes - r.count) }
