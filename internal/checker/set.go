package checker

import (
	"encoding/binary"
	"math/bits"
)

// stateSet is an insert-only set of byte-string keys: the enumeration's memo
// of visited states, and a Recorder's observed-value vectors. The keys sit
// back to back in one byte slice, and an open-addressing table with linear
// probing holds each key's index and hash, so adding a key costs only the
// slices' amortized growth where a map[string] allocates a string per key
// and rehashes every key as it grows. A probe compares a slot's stored hash
// first and the key's bytes only on a match, so a collision costs a
// comparison, never a wrong answer. The set is never iterated, so no result
// can depend on the hash.
//
// reset empties the set for reuse in constant time. A slot holds its key's
// number, counted over the keys added since the table was built or last
// cleared (grow builds it again, numbering only the keys it holds), and a
// slot numbered at most base, the count at the last reset, is empty: reset
// only moves base past the keys the set held.
type stateSet struct {
	bytes []byte     // every key, back to back, in insertion order
	ends  []int      // key i is bytes[ends[i-1]:ends[i]]; key 0 starts at 0
	slots []stateRef // a power of two long, at most 3/4 full
	shift uint       // 32 - log2(len(slots)): maps a slot hash onto the slots
	base  uint32     // the key count at the last reset; slots numbered up to it are empty
}

// stateRef is one slot of a stateSet's table: eight bytes, so a set holds
// fewer than 2^31 keys (an enumeration would hold tens of GiB of keys
// before it reached that).
type stateRef struct {
	hash uint32 // the key's stateHash
	key  uint32 // base + the key's index + 1; at most base marks an empty slot
}

// maxBase bounds base. A reset that would pass it clears the table instead,
// once per 2^31 keys, so key numbers stay below 2^32.
const maxBase = 1 << 31

// stateHashMul is the multiplier of mem's addrTable hash: fibonacci hashing.
const stateHashMul = 0x9E3779B97F4A7C15

// stateHash hashes key eight bytes at a time, zero-padding the last word,
// and returns the high half of the last product, the bits that depend on
// every bit of the key. It leaves the length out, so keys that differ only
// in trailing zero bytes of their last word hash alike (the empty key and
// every all-zero key of up to eight bytes among them): add's comparison
// tells them apart, and the tests meet real collisions without searching
// for them.
func stateHash(key []byte) uint32 {
	var h uint64
	for ; len(key) >= 8; key = key[8:] {
		h = (bits.RotateLeft64(h, 5) ^ binary.LittleEndian.Uint64(key)) * stateHashMul
	}
	if len(key) > 0 {
		var w uint64
		for i, b := range key {
			w |= uint64(b) << (8 * i)
		}
		h = (bits.RotateLeft64(h, 5) ^ w) * stateHashMul
	}
	return uint32(h >> 32)
}

// add inserts key unless the set holds it already, and reports whether it
// was inserted. The set keeps its own copy, so the caller may reuse key's
// buffer.
func (s *stateSet) add(key []byte) bool {
	if (len(s.ends)+1)*4 > len(s.slots)*3 {
		s.grow()
	}
	h := stateHash(key)
	mask := len(s.slots) - 1
	base := s.base
	for i := int(h >> s.shift); ; i = (i + 1) & mask {
		ref := &s.slots[i]
		if ref.key <= base {
			s.bytes = append(s.bytes, key...)
			s.ends = append(s.ends, len(s.bytes))
			*ref = stateRef{hash: h, key: base + uint32(len(s.ends))}
			return true
		}
		if ref.hash == h && string(s.key(int(ref.key-base-1))) == string(key) {
			return false
		}
	}
}

// key returns key i.
func (s *stateSet) key(i int) []byte {
	start := 0
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.bytes[start:s.ends[i]]
}

// grow doubles the table (to 16 slots at first) and reinserts every key by
// its stored hash, numbering the keys from 0 again.
func (s *stateSet) grow() {
	old, base := s.slots, s.base
	s.slots = make([]stateRef, max(2*len(old), 16))
	s.shift = 32 - uint(bits.TrailingZeros(uint(len(s.slots))))
	s.base = 0
	mask := len(s.slots) - 1
	for _, ref := range old {
		if ref.key <= base {
			continue
		}
		ref.key -= base
		i := int(ref.hash >> s.shift)
		for s.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = ref
	}
}

// reset empties the set and keeps its storage. It writes no slot: the
// table keeps its length, so a table grown by one large enumeration serves
// each later small one without being cleared or grown again.
func (s *stateSet) reset() {
	s.base += uint32(len(s.ends))
	if s.base > maxBase {
		clear(s.slots)
		s.base = 0
	}
	s.bytes, s.ends = s.bytes[:0], s.ends[:0]
}
