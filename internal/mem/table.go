package mem

// addrTable maps sparse simulated addresses (word- or line-aligned) to
// uint64 values: an insert-only open-addressing hash table with linear
// probing, replacing the Go maps on the hierarchy's hot paths. Lookups are
// one multiply-shift hash and a short probe over one array of key-value
// slots — no per-bucket pointers, no hash interface calls. Missing keys read
// as zero, matching the map semantics both users rely on (an untouched
// word's image value, an idle line's busy horizon). The table is never
// iterated, so probe order can't leak into simulation results.
type addrTable struct {
	slots []slot
	sh    uint // 64 - log2(len(slots)): maps a hash onto the index space
	n     int  // occupied slots, excluding the zero-key slot
	// Address zero cannot use the in-array encoding (key 0 marks an empty
	// slot), so it gets a dedicated slot.
	zeroVal uint64
}

// slot keeps a key next to its value, so a probe reads one host line.
type slot struct{ key, val uint64 }

// tableHash spreads an aligned address over the table's power-of-two index
// space: fibonacci multiplicative hashing, taking the high bits.
func tableHash(key uint64, shift uint) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> shift
}

// newAddrTable returns a table presized for at least hint keys.
func newAddrTable(hint int) addrTable {
	var t addrTable
	capacity := 64
	for capacity*3 < hint*4 { // keep load factor under 3/4
		capacity *= 2
	}
	t.init(capacity)
	return t
}

func (t *addrTable) init(capacity int) {
	t.slots = make([]slot, capacity)
	t.sh = 64
	for c := capacity; c > 1; c >>= 1 {
		t.sh--
	}
	t.n = 0
}

// clear removes every key and keeps the table's capacity. The table is never
// iterated, so a larger capacity than a new table's cannot change a result.
func (t *addrTable) clear() {
	*t = addrTable{slots: t.slots, sh: t.sh}
	clear(t.slots)
}

// get returns the value stored for key, or zero when absent.
func (t *addrTable) get(key uint64) uint64 {
	if key == 0 {
		return t.zeroVal
	}
	mask := uint64(len(t.slots) - 1)
	for i := tableHash(key, t.sh); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return s.val
		}
		if s.key == 0 {
			return 0
		}
	}
}

// ref returns key's value slot, inserting key with value zero when absent,
// which reads exactly as an absent key does. The pointer stays valid until
// the next insert of another key.
func (t *addrTable) ref(key uint64) *uint64 {
	if key == 0 {
		return &t.zeroVal
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow(len(t.slots) * 2)
	}
	mask := uint64(len(t.slots) - 1)
	for i := tableHash(key, t.sh); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return &s.val
		}
		if s.key == 0 {
			s.key = key
			t.n++
			return &s.val
		}
	}
}

// put inserts or overwrites key's value.
func (t *addrTable) put(key, val uint64) { *t.ref(key) = val }

// grow rehashes into a table of the given power-of-two capacity.
func (t *addrTable) grow(capacity int) {
	old := t.slots
	t.init(capacity)
	for _, s := range old {
		if s.key != 0 {
			*t.ref(s.key) = s.val
		}
	}
}

// reserve grows the table so that count further keys fit without rehashing.
func (t *addrTable) reserve(count int) {
	need := t.n + count
	capacity := len(t.slots)
	for capacity*3 < need*4 {
		capacity *= 2
	}
	if capacity > len(t.slots) {
		t.grow(capacity)
	}
}
