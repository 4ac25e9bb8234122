package predict

import (
	"fmt"

	"balign/internal/ir"
	"balign/internal/profile"
	"balign/internal/trace"
)

// TAGEConfig sizes a TAGE predictor: a bimodal base table plus a set of
// partially-tagged tables indexed by geometrically increasing history
// lengths (Seznec & Michaud's TAGE family).
type TAGEConfig struct {
	// BaseEntries is the bimodal fallback table size (a power of two).
	BaseEntries int
	// TableEntries is each tagged table's size (a power of two).
	TableEntries int
	// TagBits is the partial-tag width of the tagged tables (at most 12).
	TagBits uint
	// HistLens are the geometric global-history lengths, one per tagged
	// table, strictly ascending and at most 63 bits.
	HistLens []uint
}

// DefaultTAGEConfig is the registered "tage" architecture's geometry: four
// tagged 1K-entry tables over a ~1.1x-per-step doubled geometric series and
// a 4K bimodal base — small by hardware standards but far stronger than any
// of the paper's 1994-era predictors.
var DefaultTAGEConfig = TAGEConfig{
	BaseEntries:  4096,
	TableEntries: 1024,
	TagBits:      9,
	HistLens:     []uint{5, 11, 23, 44},
}

// tage3Max is the saturating ceiling of the tagged tables' 3-bit counters
// (taken when >= tage3Weak+1's midpoint, see ctr3Taken).
const (
	tage3Max       = 7
	tage3WeakTaken = 4
	tage3WeakNot   = 3
	tageUMax       = 3
)

// TAGE is a tagged geometric-history-length predictor. One TAGE value is
// the single source of truth for both executors: the reference simulator
// wraps it as a DirectionPredictor (per-event methods, PredictBit then
// UpdateBit) and the compiled kernel calls Step once per conditional event.
// UpdateBit is Step without its result, so there is one training body and
// ref-vs-flat parity is structural, not coincidental. The update rule
// follows the TAGE papers' core mechanisms — provider/altpred selection
// over the longest matching tag, useful-bit training when they disagree,
// allocation into a longer history table on mispredict with useful-bit
// victim selection, and aging (useful-bit decay) when no victim is free.
// All updates are deterministic: allocation scans the shorter-history
// candidates first instead of drawing from an LFSR, so every replay of a
// stream is bit-exact.
type TAGE struct {
	cfg      TAGEConfig
	idxBits  uint
	baseMask uint64
	tblMask  uint64
	tagMask  uint64

	base []Counter2
	// Per-table state, in structure-of-arrays form: tags hold tag+1 so
	// zero means never-allocated, ctrs are 3-bit saturating counters, us
	// the 2-bit useful counters.
	tags [][]uint16
	ctrs [][]uint8
	us   [][]uint8

	ghr uint64

	// scanIdx and scanTag are lookup scratch, not state: lookup writes
	// table i's entry index and wanted tag before anything reads them, so
	// Step can train and allocate without recomputing either.
	scanIdx []uint64
	scanTag []uint16
}

// NewTAGE builds a TAGE predictor from cfg.
func NewTAGE(cfg TAGEConfig) *TAGE {
	checkPow2(cfg.BaseEntries, "TAGE base entries")
	checkPow2(cfg.TableEntries, "TAGE table entries")
	if cfg.TagBits == 0 || cfg.TagBits > 12 {
		panic(fmt.Sprintf("predict: TAGE tag width must be in [1,12], got %d", cfg.TagBits))
	}
	if len(cfg.HistLens) == 0 {
		panic("predict: TAGE needs at least one tagged table")
	}
	for i, l := range cfg.HistLens {
		if l == 0 || l > 63 {
			panic(fmt.Sprintf("predict: TAGE history length %d out of [1,63]", l))
		}
		if i > 0 && l <= cfg.HistLens[i-1] {
			panic("predict: TAGE history lengths must be strictly ascending")
		}
	}
	bits := uint(0)
	for 1<<bits < cfg.TableEntries {
		bits++
	}
	t := &TAGE{
		cfg:      cfg,
		idxBits:  bits,
		baseMask: uint64(cfg.BaseEntries - 1),
		tblMask:  uint64(cfg.TableEntries - 1),
		tagMask:  uint64(1)<<cfg.TagBits - 1,
		base:     make([]Counter2, cfg.BaseEntries),
		tags:     make([][]uint16, len(cfg.HistLens)),
		ctrs:     make([][]uint8, len(cfg.HistLens)),
		us:       make([][]uint8, len(cfg.HistLens)),
		scanIdx:  make([]uint64, len(cfg.HistLens)),
		scanTag:  make([]uint16, len(cfg.HistLens)),
	}
	for i := range cfg.HistLens {
		t.tags[i] = make([]uint16, cfg.TableEntries)
		t.ctrs[i] = make([]uint8, cfg.TableEntries)
		t.us[i] = make([]uint8, cfg.TableEntries)
	}
	t.Reset()
	return t
}

// foldHist XOR-folds the low length bits of h into a bits-wide value — the
// classic history-compression hash of the geometric-history predictors. A
// zero-wide fold is 0: a one-entry table's index and a one-bit tag's
// second fold have no bits to fold into.
func foldHist(h uint64, length, bits uint) uint64 {
	if bits == 0 {
		return 0
	}
	h &= uint64(1)<<length - 1
	m := uint64(1)<<bits - 1
	var f uint64
	for ; h != 0; h >>= bits {
		f ^= h & m
	}
	return f
}

// index returns tagged table i's entry index for a site slot under the
// current history.
func (t *TAGE) index(slot uint64, i int) uint64 {
	l := t.cfg.HistLens[i]
	return (slot ^ slot>>t.idxBits ^ foldHist(t.ghr, l, t.idxBits) ^ uint64(i)) & t.tblMask
}

// tag returns tagged table i's partial tag for a site slot, stored +1 so
// zero marks a never-allocated entry.
func (t *TAGE) tag(slot uint64, i int) uint16 {
	l := t.cfg.HistLens[i]
	want := (slot ^ foldHist(t.ghr, l, t.cfg.TagBits) ^ foldHist(t.ghr, l, t.cfg.TagBits-1)<<1) & t.tagMask
	return uint16(want) + 1
}

// lookup resolves the provider and alternate components for slot under the
// current history: tagged table numbers, or -1 for the bimodal base. The
// scan runs from the longest history down and stops at the alternate, so
// it leaves scanIdx and scanTag filled for the provider, the alternate and
// every table longer than the provider — all that training and allocation
// read.
func (t *TAGE) lookup(slot uint64) (provider, alt int) {
	provider, alt = -1, -1
	scanIdx, scanTag := t.scanIdx, t.scanTag
	for i := len(t.cfg.HistLens) - 1; i >= 0; i-- {
		idx, tag := t.index(slot, i), t.tag(slot, i)
		scanIdx[i], scanTag[i] = idx, tag
		if t.tags[i][idx] != tag {
			continue
		}
		if provider < 0 {
			provider = i
		} else {
			alt = i
			break
		}
	}
	return provider, alt
}

// predOf reads a component's direction bit after lookup: table -1 is the
// bimodal base, any other its scanned entry.
func (t *TAGE) predOf(slot uint64, table int) uint8 {
	if table < 0 {
		if t.base[slot&t.baseMask].Taken() {
			return 1
		}
		return 0
	}
	return t.ctrs[table][t.scanIdx[table]] >> 2 & 1 // 3-bit counter: taken when >= 4
}

// PredictBit returns the predicted direction (1 = taken) for the site at
// instruction slot. It mutates no predictor state; it writes only the
// lookup scratch.
func (t *TAGE) PredictBit(slot uint64) uint8 {
	provider, _ := t.lookup(slot)
	return t.predOf(slot, provider)
}

// UpdateBit trains the predictor with the actual outcome of the site at
// slot: Step without its result. The reference simulator calls PredictBit,
// then UpdateBit, so both executors evolve state through the one training
// body in Step.
func (t *TAGE) UpdateBit(slot uint64, taken uint8) { t.Step(slot, taken) }

// Step predicts the site at slot, trains the predictor with the actual
// outcome and shifts it into the history, all from one table lookup. It
// returns the prediction made before training, which is what PredictBit
// would have returned.
func (t *TAGE) Step(slot uint64, taken uint8) uint8 {
	provider, alt := t.lookup(slot)
	pred := t.predOf(slot, provider)
	altPred := pred
	if provider >= 0 {
		altPred = t.predOf(slot, alt)
	}

	// Train the provider: its useful counter when it disambiguated from
	// the alternate prediction, then its direction counter.
	if provider >= 0 {
		pIdx := t.scanIdx[provider]
		if pred != altPred {
			u := t.us[provider][pIdx]
			if pred == taken {
				if u < tageUMax {
					t.us[provider][pIdx] = u + 1
				}
			} else if u > 0 {
				t.us[provider][pIdx] = u - 1
			}
		}
		t.ctrs[provider][pIdx] = ctr3Step(t.ctrs[provider][pIdx], taken)
	} else {
		b := slot & t.baseMask
		t.base[b] = t.base[b].Update(taken != 0)
	}

	// On a mispredict, allocate a longer-history entry: the first
	// not-useful victim wins (shortest candidate history first); if every
	// candidate is protected, age them all instead. The lookup scanned
	// every candidate, so their indexes and tags are in the scratch.
	if pred != taken && provider < len(t.cfg.HistLens)-1 {
		allocated := false
		for j := provider + 1; j < len(t.cfg.HistLens); j++ {
			idx := t.scanIdx[j]
			if t.us[j][idx] == 0 {
				t.tags[j][idx] = t.scanTag[j]
				if taken != 0 {
					t.ctrs[j][idx] = tage3WeakTaken
				} else {
					t.ctrs[j][idx] = tage3WeakNot
				}
				allocated = true
				break
			}
		}
		if !allocated {
			for j := provider + 1; j < len(t.cfg.HistLens); j++ {
				idx := t.scanIdx[j]
				if t.us[j][idx] > 0 {
					t.us[j][idx]--
				}
			}
		}
	}

	t.ghr = t.ghr<<1 | uint64(taken)
	return pred
}

// ctr3Step moves a 3-bit saturating counter toward the outcome.
func ctr3Step(c, taken uint8) uint8 {
	if taken != 0 {
		if c < tage3Max {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Predict implements DirectionPredictor.
func (t *TAGE) Predict(ev trace.Event) bool { return t.PredictBit(ev.PC/ir.InstrBytes) != 0 }

// Update implements DirectionPredictor.
func (t *TAGE) Update(ev trace.Event) {
	var bit uint8
	if ev.Taken {
		bit = 1
	}
	t.UpdateBit(ev.PC/ir.InstrBytes, bit)
}

// Name implements DirectionPredictor.
func (t *TAGE) Name() string {
	return fmt.Sprintf("tage-%dx%d", len(t.cfg.HistLens), t.cfg.TableEntries)
}

// History returns the global history register (for tests).
func (t *TAGE) History() uint64 { return t.ghr }

// Reset implements DirectionPredictor: the bimodal base returns to the
// weakly-not-taken state and every tagged entry is invalidated.
func (t *TAGE) Reset() {
	t.ghr = 0
	for i := range t.base {
		t.base[i] = Counter2Init
	}
	for i := range t.tags {
		for j := range t.tags[i] {
			t.tags[i][j] = 0
			t.ctrs[i][j] = 0
			t.us[i][j] = 0
		}
	}
}

// ArchTAGE is the extension TAGE architecture (DefaultTAGEConfig geometry).
const ArchTAGE ArchID = "tage"

func init() {
	spec := KernelSpec{Kind: KernelTAGE, TAGE: DefaultTAGEConfig}
	Register(Desc{
		ID: ArchTAGE, Class: ClassTagged, Grid: GridExtension, Order: 1,
		CostGroup: CostTagged,
		Kernel:    spec,
		New: func(*ir.Program, *profile.Profile) (Simulator, error) {
			return NewStaticSim(NewTAGE(spec.TAGE)), nil
		},
	})
}
