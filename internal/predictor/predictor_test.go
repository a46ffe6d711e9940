package predictor

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func accuracy(t *TAGE, pattern func(i int) bool, n int, pc uint64) float64 {
	correct := 0
	for i := 0; i < n; i++ {
		if t.Update(pc, pattern(i)) {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

func TestTAGELearnsBias(t *testing.T) {
	p := NewTAGE()
	acc := accuracy(p, func(i int) bool { return true }, 1000, 0x400)
	if acc < 0.95 {
		t.Errorf("always-taken accuracy = %.2f, want > 0.95", acc)
	}
}

func TestTAGELearnsPeriodicPattern(t *testing.T) {
	p := NewTAGE()
	// Taken except every 8th: needs history to beat the bimodal table.
	pattern := func(i int) bool { return i%8 != 0 }
	accuracy(p, pattern, 2000, 0x400) // warm up
	acc := accuracy(p, pattern, 2000, 0x400)
	if acc < 0.9 {
		t.Errorf("periodic pattern accuracy = %.2f, want > 0.9", acc)
	}
}

func TestTAGERandomIsHard(t *testing.T) {
	p := NewTAGE()
	seed := uint64(12345)
	rnd := func(i int) bool {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed>>63 == 1
	}
	acc := accuracy(p, rnd, 4000, 0x400)
	if acc > 0.65 {
		t.Errorf("random pattern accuracy = %.2f, implausibly high", acc)
	}
}

func TestTAGESeparatesBranches(t *testing.T) {
	p := NewTAGE()
	for i := 0; i < 3000; i++ {
		p.Update(0x100, true)
		p.Update(0x200, false)
	}
	if !p.Predict(0x100) {
		t.Error("branch at 0x100 should predict taken")
	}
	if p.Predict(0x200) {
		t.Error("branch at 0x200 should predict not-taken")
	}
}

func TestFoldHistoryBounded(t *testing.T) {
	f := func(hist uint64, bits, out uint8) bool {
		b := uint(bits%64) + 1
		o := uint(out%16) + 1
		return foldHistory(hist, b, o) < (1 << o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreSetMergeRules(t *testing.T) {
	s := NewStoreSet()
	if s.PredictDependent(0x10, 0x20) {
		t.Fatal("untrained predictor must predict independent")
	}
	s.TrainViolation(0x10, 0x20)
	if !s.PredictDependent(0x10, 0x20) {
		t.Fatal("trained pair must predict dependent")
	}
	// A second load colliding with the same store joins the set.
	s.TrainViolation(0x30, 0x20)
	if !s.PredictDependent(0x30, 0x20) {
		t.Error("second load should join the store's set")
	}
	// Merging two assigned sets: the smaller ID wins, deterministically.
	s.TrainViolation(0x40, 0x50) // new set
	s.TrainViolation(0x10, 0x50) // merge
	l1, _ := s.SetOf(0x10)
	s1, _ := s.SetOf(0x50)
	if l1 != s1 {
		t.Error("merge did not unify the sets")
	}
}

func TestStoreSetClear(t *testing.T) {
	s := NewStoreSet()
	s.TrainViolation(0x10, 0x20)
	s.Clear()
	if s.PredictDependent(0x10, 0x20) {
		t.Error("Clear should forget all sets")
	}
}

func TestStoreSetUnrelatedPairsIndependent(t *testing.T) {
	s := NewStoreSet()
	s.TrainViolation(0x10, 0x20)
	s.TrainViolation(0x30, 0x40)
	if s.PredictDependent(0x10, 0x40) {
		t.Error("loads and stores from different sets must stay independent")
	}
}

// TestFreshTablesAnswerZeroedWithoutAllocating: a predictor that was never
// trained allocates no table, and answers as one whose tables are
// allocated and zeroed. The first Update and the first TrainViolation
// allocate the whole table.
func TestFreshTablesAnswerZeroedWithoutAllocating(t *testing.T) {
	fresh, zeroed := NewTAGE(), NewTAGE()
	zeroed.alloc()
	wrong := 0
	allocs := testing.AllocsPerRun(10, func() {
		for pc := uint64(0); pc < 1<<16; pc += 0x3c4 {
			if fresh.Predict(pc) != zeroed.Predict(pc) {
				wrong++
			}
		}
	})
	if wrong != 0 || allocs != 0 || fresh.base != nil || fresh.tagged != nil {
		t.Errorf("fresh TAGE: %d answers differ from a zeroed one, %.0f allocs, tables allocated %t; want 0, 0, false",
			wrong, allocs, fresh.base != nil || fresh.tagged != nil)
	}
	fresh.Update(0x400, false)
	if len(fresh.base) != 1<<tageBaseBits || len(fresh.tagged) != len(tageHistLens)<<tageBankBits {
		t.Errorf("after the first Update: %d base counters and %d tagged entries, want %d and %d",
			len(fresh.base), len(fresh.tagged), 1<<tageBaseBits, len(tageHistLens)<<tageBankBits)
	}

	s := NewStoreSet()
	found := 0
	allocs = testing.AllocsPerRun(10, func() {
		for pc := uint64(0); pc < 1<<16; pc += 0x3c4 {
			if _, ok := s.SetOf(pc); ok {
				found++
			}
			if s.PredictDependent(pc, pc+4) {
				found++
			}
		}
		s.Clear()
	})
	if found != 0 || allocs != 0 || s.ssit != nil {
		t.Errorf("fresh StoreSet: %d sets found, %.0f allocs, table allocated %t; want 0, 0, false",
			found, allocs, s.ssit != nil)
	}
	s.TrainViolation(0x10, 0x20)
	if len(s.ssit) != 1<<ssitBits {
		t.Errorf("after the first TrainViolation: %d SSIT entries, want %d", len(s.ssit), 1<<ssitBits)
	}
}

// TestResetAnswersAsNew: a trained predictor, once reset, keeps its tables
// and answers a training sequence exactly as a new predictor does.
func TestResetAnswersAsNew(t *testing.T) {
	train := func(p *TAGE, s *StoreSet) []bool {
		var out []bool
		for i := uint64(0); i < 3000; i++ {
			pc := 0x400 + (i%37)*4
			out = append(out, p.Update(pc, (i*i+pc)%3 != 0))
			if i%5 == 0 {
				s.TrainViolation(pc, pc^0x80)
			}
			id, ok := s.SetOf(pc)
			out = append(out, ok, id%2 == 1, s.PredictDependent(pc+8, pc^0x88))
		}
		return out
	}
	p, s := NewTAGE(), NewStoreSet()
	train(p, s)
	p.Reset()
	s.Reset()
	if p.base == nil || s.ssit == nil {
		t.Fatal("reset dropped the tables")
	}
	if p.hist != 0 || s.nextID != 0 {
		t.Errorf("reset left history %#x and next store-set ID %d", p.hist, s.nextID)
	}
	if got, want := train(p, s), train(NewTAGE(), NewStoreSet()); !slices.Equal(got, want) {
		t.Error("a reset predictor answers differently from a new one")
	}
}

// referenceUpdate is Update as it was before it computed each bank's index
// and tag once: Predict, the provider search and the allocation loop each
// recompute them.
func referenceUpdate(t *TAGE, pc uint64, taken bool) bool {
	if t.base == nil {
		t.alloc()
	}
	correct := t.Predict(pc) == taken
	provider := -1
	for b := len(tageHistLens) - 1; b >= 0; b-- {
		idx, tag := t.bankIndex(b, pc)
		e := &t.tagged[idx]
		if e.tag == tag && e.useful > 0 {
			provider = b
			bump(&e.ctr, taken, 3)
			if correct && e.useful < 3 {
				e.useful++
			}
			break
		}
	}
	if provider < 0 {
		bump(&t.base[pc&((1<<tageBaseBits)-1)], taken, 2)
	}
	if !correct {
		for b := provider + 1; b < len(tageHistLens); b++ {
			idx, tag := t.bankIndex(b, pc)
			e := &t.tagged[idx]
			if e.useful == 0 {
				*e = tageEntry{tag: tag, useful: 1}
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				break
			}
			e.useful--
		}
	}
	t.hist = t.hist<<1 | b2u(taken)
	return correct
}

// TestUpdateMatchesReference drives Update and the reference with the same
// branch streams, biased, periodic and random over a few PCs, and requires
// the same answer from every update and the same tables every 500 updates.
func TestUpdateMatchesReference(t *testing.T) {
	got, want := NewTAGE(), NewTAGE()
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100_000; i++ {
		pc := uint64(r.IntN(64))*4 + 0x400000
		var taken bool
		switch pc % 3 {
		case 0:
			taken = r.IntN(10) > 0
		case 1:
			taken = i%7 < 3
		default:
			taken = r.IntN(2) == 0
		}
		if g, w := got.Update(pc, taken), referenceUpdate(want, pc, taken); g != w {
			t.Fatalf("update %d (pc %#x, taken %v): correct = %v, reference %v", i, pc, taken, g, w)
		}
		if i%500 != 0 {
			continue
		}
		if got.hist != want.hist || !slices.Equal(got.base, want.base) || !slices.Equal(got.tagged, want.tagged) {
			t.Fatalf("update %d (pc %#x, taken %v): tables differ from the reference", i, pc, taken)
		}
	}
}
