package checker

import (
	"bytes"
	"encoding/binary"
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

// checkStateSet feeds keys to a stateSet and to a map and requires the same
// answer for every key, whether it was new, and then requires the set to
// hold each distinct key, in the order first added. It returns the number
// of distinct keys that share their hash with another.
func checkStateSet(t testing.TB, keys [][]byte) (collisions int) {
	var s stateSet
	seen := map[string]bool{}
	var distinct []string
	for n, k := range keys {
		added := s.add(k)
		if added == seen[string(k)] {
			t.Fatalf("key %d %q: add = %v, want %v", n, k, added, !seen[string(k)])
		}
		if added {
			seen[string(k)] = true
			distinct = append(distinct, string(k))
		}
	}
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
	return collisions
}

// TestStateSetMatchesMap: the arena set answers every key of the stream as
// a map does, through several growths and across keys whose hashes
// collide, so a set that trusted the hash alone, or compared only the
// bytes two keys share, would fail.
func TestStateSetMatchesMap(t *testing.T) {
	keys := stateSetKeys()
	collisions := checkStateSet(t, keys)
	if collisions == 0 {
		t.Fatal("no two distinct keys share a hash: the stream does not exercise the key comparison")
	}
	t.Logf("%d keys, %d distinct ones sharing a hash", len(keys), collisions)
}

// FuzzStateSet splits its input into keys, each led by a length byte, and
// checks the set against a map.
func FuzzStateSet(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 1, 2, 1, 0, 3, 1, 0, 0, 1, 1})
	f.Add([]byte("\x08abcdefgh\x09abcdefgh\x00\x07abcdefg\x08abcdefgh"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys [][]byte
		for len(data) > 0 {
			n := min(int(data[0])%24, len(data)-1)
			keys = append(keys, data[1:1+n])
			data = data[1+n:]
		}
		checkStateSet(t, keys)
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
