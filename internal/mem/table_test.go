package mem

import (
	"math/rand"
	"testing"
)

func TestAddrTableAgainstMap(t *testing.T) {
	// Keys shaped like the simulator's: huge sparse word/line addresses.
	rng := rand.New(rand.NewSource(1))
	tab := newAddrTable(0)
	ref := map[uint64]uint64{}
	keys := make([]uint64, 0, 4096)
	for i := 0; i < 20000; i++ {
		var k uint64
		if len(keys) > 0 && rng.Intn(3) > 0 {
			k = keys[rng.Intn(len(keys))] // overwrite an existing key
		} else {
			k = (uint64(rng.Intn(5)+1)<<32 | uint64(rng.Intn(1<<20))) &^ 7
			keys = append(keys, k)
		}
		v := rng.Uint64()
		tab.put(k, v)
		ref[k] = v
		if got := tab.get(k); got != v {
			t.Fatalf("get(%#x) = %d right after put %d", k, got, v)
		}
	}
	for k, v := range ref {
		if got := tab.get(k); got != v {
			t.Errorf("get(%#x) = %d, want %d", k, got, v)
		}
	}
	// Absent keys read as zero, like a Go map.
	if tab.get(0xdead000) != 0 {
		t.Error("absent key must read as zero")
	}
}

func TestAddrTableZeroKey(t *testing.T) {
	tab := newAddrTable(8)
	if tab.get(0) != 0 {
		t.Fatal("unset zero key must read as zero")
	}
	tab.put(0, 42)
	if tab.get(0) != 42 {
		t.Fatal("zero key must round-trip")
	}
	tab.put(0, 7)
	if tab.get(0) != 7 {
		t.Fatal("zero key must overwrite")
	}
}

func TestAddrTableReserve(t *testing.T) {
	tab := newAddrTable(0)
	tab.reserve(10000)
	capBefore := len(tab.slots)
	for i := uint64(1); i <= 10000; i++ {
		tab.put(i*8, i)
	}
	if len(tab.slots) != capBefore {
		t.Errorf("reserved table rehashed: %d -> %d slots", capBefore, len(tab.slots))
	}
	for i := uint64(1); i <= 10000; i++ {
		if tab.get(i*8) != i {
			t.Fatalf("lost key %d", i*8)
		}
	}
}
