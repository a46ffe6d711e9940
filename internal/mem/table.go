package mem

// addrTable maps sparse simulated addresses (word- or line-aligned) to
// uint64 values: an insert-only open-addressing hash table with linear
// probing, replacing the Go maps on the hierarchy's hot paths. Lookups are
// one multiply-shift hash and a short probe over two parallel arrays —
// no per-bucket pointers, no hash interface calls. Missing keys read as
// zero, matching the map semantics both users rely on (an untouched word's
// image value, an idle line's busy horizon). The table is never iterated,
// so probe order can't leak into simulation results.
type addrTable struct {
	keys []uint64
	vals []uint64
	sh   uint // 64 - log2(len(keys)): maps a hash onto the index space
	n    int  // occupied slots, excluding the zero-key slot
	// Address zero cannot use the in-array encoding (key 0 marks an empty
	// slot), so it gets a dedicated slot.
	zeroVal uint64
}

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
	t.keys = make([]uint64, capacity)
	t.vals = make([]uint64, capacity)
	t.sh = 64
	for c := capacity; c > 1; c >>= 1 {
		t.sh--
	}
	t.n = 0
}

// clear removes every key and keeps the table's capacity. The table is never
// iterated, so a larger capacity than a new table's cannot change a result.
func (t *addrTable) clear() {
	*t = addrTable{keys: t.keys, vals: t.vals, sh: t.sh}
	clear(t.keys)
	clear(t.vals)
}

// get returns the value stored for key, or zero when absent.
func (t *addrTable) get(key uint64) uint64 {
	if key == 0 {
		return t.zeroVal
	}
	mask := uint64(len(t.keys) - 1)
	for i := tableHash(key, t.sh); ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == key {
			return t.vals[i]
		}
		if k == 0 {
			return 0
		}
	}
}

// put inserts or overwrites key's value.
func (t *addrTable) put(key, val uint64) {
	if key == 0 {
		t.zeroVal = val
		return
	}
	if (t.n+1)*4 > len(t.keys)*3 {
		t.grow(len(t.keys) * 2)
	}
	t.insert(key, val)
}

func (t *addrTable) insert(key, val uint64) {
	mask := uint64(len(t.keys) - 1)
	for i := tableHash(key, t.sh); ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == key {
			t.vals[i] = val
			return
		}
		if k == 0 {
			t.keys[i] = key
			t.vals[i] = val
			t.n++
			return
		}
	}
}

// grow rehashes into a table of the given power-of-two capacity.
func (t *addrTable) grow(capacity int) {
	oldKeys, oldVals := t.keys, t.vals
	t.init(capacity)
	for i, k := range oldKeys {
		if k != 0 {
			t.insert(k, oldVals[i])
		}
	}
}

// reserve grows the table so that count further keys fit without rehashing.
func (t *addrTable) reserve(count int) {
	need := t.n + count
	capacity := len(t.keys)
	for capacity*3 < need*4 {
		capacity *= 2
	}
	if capacity > len(t.keys) {
		t.grow(capacity)
	}
}
