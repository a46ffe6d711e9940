package checker

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// stateSetKeys is a key stream with every case the set must tell apart:
// the empty key, keys of zero bytes, keys that are prefixes of one another
// (which share a hash when they differ only in trailing zero bytes of
// their last word), keys either side of the eight-byte word boundary,
// uvarint-encoded keys like the enumeration's, and repeats of all of them,
// over enough distinct keys to grow the table several times.
func stateSetKeys() [][]byte {
	keys := [][]byte{
		nil, {}, {0}, {0, 0}, make([]byte, 7), make([]byte, 8), make([]byte, 9),
		{1}, {1, 0}, {1, 0, 0}, {0, 1}, {0, 0, 1},
		[]byte("abcdefg"), []byte("abcdefgh"), []byte("abcdefgh\x00"), []byte("abcdefg\x00"),
		[]byte("abcdefghijklmnop"), []byte("abcdefghijklmnop\x00\x00"),
		nil, {0}, {1, 0}, []byte("abcdefgh"),
	}
	rng := uint64(1)
	alphabet := []byte{0, 0, 1, 2, 0x7f, 0x80, 0xff}
	for i := 0; i < 3000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		var k []byte
		switch i % 3 {
		case 0: // a state-like key: a few uvarints
			for j := uint64(0); j < 1+rng>>61; j++ {
				k = binary.AppendUvarint(k, (rng>>(8*j))%300)
			}
		case 1: // a key over a small alphabet, 0 to 19 bytes long
			for j := uint64(0); j < (rng>>33)%20; j++ {
				k = append(k, alphabet[(rng>>(3*j))%uint64(len(alphabet))])
			}
		case 2: // a prefix, or a zero-extension, of an earlier key
			prev := keys[int((rng>>20)%uint64(len(keys)))]
			if rng&(1<<40) != 0 {
				k = append(bytes.Clone(prev), 0)
			} else {
				k = bytes.Clone(prev[:len(prev)/2])
			}
		}
		keys = append(keys, k)
	}
	return keys
}

// checkStateSet feeds keys to s and to a map, emptying both before key n
// whenever reset(n) holds, and requires the same answer for every key,
// whether it was new: a reset set must answer as a new one does. Then it
// requires the set to hold each distinct key added since the last reset, in
// the order first added. It returns the number of distinct keys, summed
// over the runs between resets, that share their hash with another.
func checkStateSet(t testing.TB, s *stateSet, keys [][]byte, reset func(n int) bool) (collisions int) {
	seen := map[string]bool{}
	var distinct []string
	tally := func() {
		byHash := map[uint32]int{}
		for i, k := range distinct {
			if got := s.key(i); string(got) != k {
				t.Fatalf("key %d is %q, want %q", i, got, k)
			}
			byHash[stateHash([]byte(k))]++
		}
		for _, n := range byHash {
			if n > 1 {
				collisions += n
			}
		}
	}
	for n, k := range keys {
		if reset(n) {
			tally()
			s.reset()
			clear(seen)
			distinct = distinct[:0]
		}
		added := s.add(k)
		if added == seen[string(k)] {
			t.Fatalf("key %d %q: add = %v, want %v", n, k, added, !seen[string(k)])
		}
		if added {
			seen[string(k)] = true
			distinct = append(distinct, string(k))
		}
	}
	tally()
	return collisions
}

func never(int) bool { return false }

// TestStateSetMatchesMap: the arena set answers every key of the stream as
// a map does, through several growths and across keys whose hashes
// collide, so a set that trusted the hash alone, or compared only the
// bytes two keys share, would fail. Then the same stream runs with resets
// between runs of keys, some short and some long enough to grow the table,
// and a reset set must answer each run's keys as a new one does.
func TestStateSetMatchesMap(t *testing.T) {
	keys := stateSetKeys()
	collisions := checkStateSet(t, new(stateSet), keys, never)
	if collisions == 0 {
		t.Fatal("no two distinct keys share a hash: the stream does not exercise the key comparison")
	}
	t.Logf("%d keys, %d distinct ones sharing a hash", len(keys), collisions)

	resets := func(n int) bool { return n%1000 == 500 || n%1000 == 530 || n == 2100 }
	if checkStateSet(t, new(stateSet), keys, resets) == 0 {
		t.Fatal("with resets, no two distinct keys of one run share a hash")
	}
}

// TestStateSetResetWraps: the reset that takes the key numbers past the
// limit clears the table and numbers from 0 again, and the set answers as
// a new one does on either side of it. The runs of keys are too short to
// grow the table, which would renumber the keys itself.
func TestStateSetResetWraps(t *testing.T) {
	var s stateSet
	var key []byte
	for i := 0; i < 100; i++ {
		s.add(binary.AppendUvarint(key[:0], uint64(i)))
	}
	size := len(s.slots)
	s.reset()
	s.base = maxBase - 50 // as if 2^31 keys had come and gone
	for round := 0; round < 3; round++ {
		for pass, want := range []bool{true, false} {
			for i := 0; i < 40; i++ {
				if got := s.add(binary.AppendUvarint(key[:0], uint64(i))); got != want {
					t.Fatalf("round %d, pass %d, key %d (base %d): add = %v, want %v", round, pass, i, s.base, got, want)
				}
			}
		}
		s.reset()
	}
	if len(s.slots) != size || s.base != 40 {
		t.Fatalf("%d slots, base %d; want %d slots and base 40, numbered from 0 after the reset past the limit", len(s.slots), s.base, size)
	}
}

// TestStateSetResetKeepsTable grows a memo with a large key set, resets it,
// and runs small enumerations on it as Enumerate does with a pooled memo.
// Each must find iriw's outcomes, and neither it nor its reset may clear
// the large table or change its length: the slots the large set filled
// stay filled, read as empty.
func TestStateSetResetKeepsTable(t *testing.T) {
	var s stateSet
	var key []byte
	const large = 50_000
	for i := 0; i < large; i++ {
		key = binary.AppendUvarint(key[:0], uint64(i)<<7)
		s.add(key)
	}
	filled := func() (n int) {
		for _, ref := range s.slots {
			if ref.key != 0 {
				n++
			}
		}
		return n
	}
	size, before := len(s.slots), filled()
	s.reset()
	want := Enumerate(iriw(), X86TSO)
	for round := 0; round < 3; round++ {
		x := newMachine(iriw(), X86TSO)
		x.seen = s
		x.visit()
		s = x.seen
		if got := x.out.Outcomes(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: outcomes %v, want %v", round, got.Sorted(), want.Sorted())
		}
		s.reset()
		if len(s.slots) != size || filled() < before {
			t.Fatalf("round %d: the table has %d slots, %d filled; it had %d, %d filled", round, len(s.slots), filled(), size, before)
		}
	}
	for i := 0; i < large; i += large / 10 {
		if !s.add(binary.AppendUvarint(key[:0], uint64(i)<<7)) {
			t.Fatalf("after the resets, key %d of the large set is not new", i)
		}
	}
}

// FuzzStateSet splits its input into keys, each led by a length byte, and
// checks the set against a map. A length byte of 0xff resets the set
// instead.
func FuzzStateSet(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 1, 2, 1, 0, 3, 1, 0, 0, 1, 1})
	f.Add([]byte("\x08abcdefgh\x09abcdefgh\x00\x07abcdefg\x08abcdefgh"))
	f.Add([]byte("\x08abcdefgh\x01a\xff\x08abcdefgh\x00\xff\x00\x01a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys [][]byte
		resets := map[int]bool{}
		for len(data) > 0 {
			if data[0] == 0xff {
				resets[len(keys)] = true
				data = data[1:]
				continue
			}
			n := min(int(data[0])%24, len(data)-1)
			keys = append(keys, data[1:1+n])
			data = data[1+n:]
		}
		checkStateSet(t, new(stateSet), keys, func(n int) bool { return resets[n] })
	})
}

// BenchmarkStateSetRevisit is the memo lookup of a visited state: iriw's
// initial state once the search has visited every state. It allocates
// nothing.
func BenchmarkStateSetRevisit(b *testing.B) {
	x := newMachine(iriw(), X86TSO)
	x.visit() // leaves the machine in its initial state
	x.appendKey()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.seen.add(x.key) {
			b.Fatal("the initial state is not in the memo")
		}
	}
}

// BenchmarkRecorderSeenOutcome records a final state whose observed values
// were rendered before. It allocates nothing.
func BenchmarkRecorderSeenOutcome(b *testing.B) {
	x := newMachine(iriw(), X86TSO)
	r := NewRecorder(x.p)
	r.Record(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(x)
	}
}

// BenchmarkStateSetRefill is a pooled memo's reuse: reset a warm set and
// add the key stream again, as each enumeration after the first does. It
// allocates nothing.
func BenchmarkStateSetRefill(b *testing.B) {
	keys := stateSetKeys()
	var s stateSet
	for _, k := range keys {
		s.add(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.reset()
		for _, k := range keys {
			s.add(k)
		}
	}
}
