// Package predictor implements the two predictors of Table III: an L-TAGE
// style branch predictor (Seznec) and the StoreSet memory-dependence
// predictor (Chrysos & Emer).
package predictor

// TAGE is a tagged-geometric-history branch predictor: a bimodal base table
// plus several partially tagged tables indexed by geometrically increasing
// global-history lengths. It captures the structure of L-TAGE at a scale
// appropriate for the trace-driven core model.
//
// The tables are allocated by the first Update. Until then every counter
// and entry is zero, so Predict answers as a zeroed table does without
// reading one: no tagged entry is useful and the base counter predicts
// taken.
type TAGE struct {
	base []int8 // bimodal 2-bit counters
	// tagged holds one bank of 1<<tageBankBits entries per history length
	// in tageHistLens, bank b at offset b<<tageBankBits.
	tagged []tageEntry
	hist   uint64 // global history register
}

type tageEntry struct {
	tag    uint16
	ctr    int8 // signed 3-bit counter: >=0 predicts taken
	useful uint8
}

// TAGE geometry: history lengths roughly geometric (L-TAGE uses 5..640).
var tageHistLens = [...]uint{4, 8, 16, 32, 64}

const (
	tageBaseBits = 12
	tageBankBits = 10
	tageTagBits  = 9
)

// NewTAGE returns a predictor with default geometry. It allocates no table.
func NewTAGE() *TAGE {
	t := new(TAGE)
	t.Reset()
	return t
}

// Reset returns the predictor to the state NewTAGE builds: empty history
// and, when allocated, zeroed tables, which it keeps. A zeroed table answers
// exactly as an unallocated one.
func (t *TAGE) Reset() {
	*t = TAGE{base: t.base, tagged: t.tagged}
	clear(t.base)
	clear(t.tagged)
}

// alloc allocates the zeroed tables.
func (t *TAGE) alloc() {
	t.base = make([]int8, 1<<tageBaseBits)
	t.tagged = make([]tageEntry, len(tageHistLens)<<tageBankBits)
}

func foldHistory(hist uint64, bits, out uint) uint64 {
	if bits > 64 {
		bits = 64
	}
	h := hist & ((1 << bits) - 1)
	var f uint64
	for h != 0 {
		f ^= h & ((1 << out) - 1)
		h >>= out
	}
	return f
}

// bankIndex returns the index in t.tagged of pc's entry in bank b, and the
// tag it must carry.
func (t *TAGE) bankIndex(b int, pc uint64) (idx uint64, tag uint16) {
	fh := foldHistory(t.hist, tageHistLens[b], tageBankBits)
	idx = uint64(b)<<tageBankBits | (pc^(pc>>tageBankBits)^fh)&((1<<tageBankBits)-1)
	ft := foldHistory(t.hist, tageHistLens[b], tageTagBits)
	tag = uint16((pc ^ (pc >> 3) ^ ft<<1) & ((1 << tageTagBits) - 1))
	return
}

// Predict returns the predicted direction for the branch at pc.
func (t *TAGE) Predict(pc uint64) bool {
	if t.base == nil {
		return true
	}
	for b := len(tageHistLens) - 1; b >= 0; b-- {
		idx, tag := t.bankIndex(b, pc)
		e := &t.tagged[idx]
		if e.tag == tag && e.useful > 0 {
			return e.ctr >= 0
		}
	}
	return t.base[pc&((1<<tageBaseBits)-1)] >= 0
}

// Update trains the predictor with the actual outcome and returns whether
// the prediction was correct. It computes each bank's index and tag once,
// for the prediction, the training of its provider and the allocation
// alike: the history they fold does not change until the end.
func (t *TAGE) Update(pc uint64, taken bool) bool {
	if t.base == nil {
		t.alloc()
	}
	var idx [len(tageHistLens)]uint64
	var tag [len(tageHistLens)]uint16
	for b := range tageHistLens {
		idx[b], tag[b] = t.bankIndex(b, pc)
	}

	// The provider is the longest-history bank holding a useful entry for
	// pc, as in Predict; without one the base counter predicts.
	provider := -1
	for b := len(tageHistLens) - 1; b >= 0; b-- {
		if e := &t.tagged[idx[b]]; e.tag == tag[b] && e.useful > 0 {
			provider = b
			break
		}
	}
	var correct bool
	if provider >= 0 {
		e := &t.tagged[idx[provider]]
		correct = (e.ctr >= 0) == taken
		bump(&e.ctr, taken, 3)
		if correct && e.useful < 3 {
			e.useful++
		}
	} else {
		c := &t.base[pc&((1<<tageBaseBits)-1)]
		correct = (*c >= 0) == taken
		bump(c, taken, 2)
	}

	// On a misprediction, allocate in a longer-history bank.
	if !correct {
		for b := provider + 1; b < len(tageHistLens); b++ {
			e := &t.tagged[idx[b]]
			if e.useful == 0 {
				*e = tageEntry{tag: tag[b], useful: 1}
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

func bump(c *int8, up bool, bits uint) {
	max := int8(1<<(bits-1)) - 1
	min := -int8(1 << (bits - 1))
	if up {
		if *c < max {
			*c++
		}
	} else if *c > min {
		*c--
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
