package core

import (
	"testing"

	"sesa/internal/config"
	"sesa/internal/isa"
)

// newArena returns an arena of the given capacity, as SetProgram sizes
// one.
func newArena(capacity int) arena {
	var a arena
	a.resize(capacity)
	return a
}

// newStoreQueue returns a store queue of the given capacity, as SetProgram
// sizes one.
func newStoreQueue(capacity int) storeQueue {
	var q storeQueue
	q.resize(capacity)
	return q
}

func TestEntryRefPackUnpack(t *testing.T) {
	if nilRef.index() != -1 {
		t.Fatalf("nilRef.index() = %d, want -1", nilRef.index())
	}
	for _, tc := range []struct {
		idx int32
		gen uint32
	}{{0, 0}, {0, 1}, {7, 0}, {279, 4294967295}, {1 << 20, 12345}} {
		r := makeRef(tc.idx, tc.gen)
		if r == nilRef {
			t.Fatalf("makeRef(%d,%d) collided with nilRef", tc.idx, tc.gen)
		}
		if r.index() != tc.idx || r.gen() != tc.gen {
			t.Errorf("round trip (%d,%d) -> (%d,%d)", tc.idx, tc.gen, r.index(), r.gen())
		}
	}
}

func TestArenaGenerationInvalidation(t *testing.T) {
	a := newArena(4)
	i := a.alloc()
	r := a.refOf(i)
	if !a.live(r) {
		t.Fatal("fresh ref must be live")
	}
	a.ents[i].dynSeq = 42
	a.release(i)
	if a.live(r) {
		t.Fatal("ref must go stale when its slot is released")
	}
	// Reuse of the slot must not revive the old ref.
	j := a.alloc()
	if j != i {
		t.Fatalf("free list should hand back the released slot, got %d want %d", j, i)
	}
	if a.live(r) {
		t.Fatal("old-generation ref must not match the slot's new occupant")
	}
	if !a.live(a.refOf(j)) {
		t.Fatal("new ref must be live")
	}
	if a.ents[j].dynSeq != 0 {
		t.Fatal("alloc must hand out a zeroed entry")
	}
}

// TestArenaResizeStartsAsNew: resizing a used arena within its capacity
// keeps the storage and hands out the slots, refs and zeroed entries a new
// arena of that size hands out.
func TestArenaResizeStartsAsNew(t *testing.T) {
	a := newArena(8)
	for k := 0; k < 20; k++ {
		i := a.alloc()
		a.ents[i].dynSeq = uint64(k + 1)
		a.stat[i] = stRetired
		a.release(i)
	}
	ents := &a.ents[0]
	a.resize(5)
	if &a.ents[0] != ents {
		t.Error("resize within capacity reallocated the entries")
	}
	fresh := newArena(5)
	for k := 0; k < 5; k++ {
		i, j := a.alloc(), fresh.alloc()
		if i != j || a.refOf(i) != fresh.refOf(j) || a.ents[i] != fresh.ents[j] || a.stat[i] != fresh.stat[j] {
			t.Fatalf("allocation %d: slot %d ref %#x on the resized arena, slot %d ref %#x on a new one",
				k, i, a.refOf(i), j, fresh.refOf(j))
		}
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	a := newArena(2)
	a.alloc()
	a.alloc()
	defer func() {
		if recover() == nil {
			t.Error("allocating past capacity must panic")
		}
	}()
	a.alloc()
}

// TestShortProgramSquashRedispatch runs programs shorter than ROB+SQ, whose
// arena SetProgram sizes to the program's length, through squashes that
// flush entries and dispatch them again, on every machine and both core
// shapes. In the first program a load issues before the older store to its
// word knows its address and is squashed as a dependence violation; in the
// second, core 1's store invalidates a line core 0 read past an older
// unperformed load. 370-NoSpec does not speculate in the first and 370-RCP's
// invisible read is not invalidated in the second, so each machine must
// squash in at least one of the two.
func TestShortProgramSquashRedispatch(t *testing.T) {
	dep := []isa.Program{{isa.Load(1, addrA), withDep(isa.StoreImm(addrB, 9), 1), isa.Load(2, addrB)}}
	snoop := []isa.Program{
		{isa.Load(3, addrC), withDep(isa.Load(1, addrA), 3), isa.Load(2, addrB)},
		{isa.ALUImm(4, isa.RegNone, 1, 250), isa.ALUImm(4, 4, 1, 100), withDep(isa.StoreImm(addrB, 7), 4)},
	}
	for _, model := range config.AllModels() {
		for _, shape := range readyConfigs(1, model) {
			squashes := uint64(0)
			for _, progs := range [][]isa.Program{dep, snoop} {
				cfg := shape
				cfg.Cores = len(progs)
				m := newReadyMachine(t, cfg, progs)
				for i, c := range m.cores {
					if len(c.ar.ents) != len(progs[i]) {
						t.Fatalf("%s, ROB %d: arena has %d slots for a %d-instruction program",
							model, cfg.Core.ROBEntries, len(c.ar.ents), len(progs[i]))
					}
				}
				m.run(100_000)
				for _, c := range m.cores {
					squashes += c.st.Squashes + c.st.DepSquashes
				}
				if len(progs) == 1 {
					if got := m.cores[0].RegValue(2); got != 9 {
						t.Errorf("%s, ROB %d: r2 = %d after the dependence squash, want 9", model, cfg.Core.ROBEntries, got)
					}
				}
			}
			if squashes == 0 {
				t.Errorf("%s, ROB %d: neither program squashed", model, shape.Core.ROBEntries)
			}
		}
	}
}

func TestRingFIFOAndTruncate(t *testing.T) {
	r := newRing(4)
	refs := []entryRef{makeRef(0, 0), makeRef(1, 0), makeRef(2, 0), makeRef(3, 0)}
	for _, v := range refs {
		r.push(v)
	}
	if !r.full() {
		t.Fatal("ring should be full")
	}
	for k, want := range refs {
		if got := r.at(k); got != want {
			t.Fatalf("at(%d) = %v, want %v", k, got, want)
		}
	}
	// Pop two, push two: wrap-around keeps FIFO positions stable.
	r.popFront()
	r.popFront()
	r.push(makeRef(4, 0))
	r.push(makeRef(5, 0))
	want := []entryRef{makeRef(2, 0), makeRef(3, 0), makeRef(4, 0), makeRef(5, 0)}
	for k, w := range want {
		if got := r.at(k); got != w {
			t.Fatalf("after wrap: at(%d) = %v, want %v", k, got, w)
		}
	}
	// Truncating the youngest suffix leaves survivors' positions intact,
	// and the dropped positions still read their (now stale) refs — the
	// property the issue scan's generation check relies on.
	r.truncate(2)
	if r.len() != 2 || r.at(0) != makeRef(2, 0) || r.at(1) != makeRef(3, 0) {
		t.Fatal("truncate moved surviving positions")
	}
	if r.at(2) != makeRef(4, 0) {
		t.Fatal("truncated position should still read the old ref")
	}
}

func TestRingOverflowPanics(t *testing.T) {
	r := newRing(1)
	r.push(makeRef(0, 0))
	defer func() {
		if recover() == nil {
			t.Error("pushing past capacity must panic")
		}
	}()
	r.push(makeRef(1, 0))
}
