package predict

import (
	"fmt"

	"balign/internal/ir"
	"balign/internal/profile"
	"balign/internal/trace"
)

// PerceptronConfig sizes a hashed perceptron predictor: a set of weight
// tables, each indexed by the branch address hashed with a different slice
// of global history (Jiménez's hashed-perceptron family).
type PerceptronConfig struct {
	// TableEntries is each weight table's size (a power of two).
	TableEntries int
	// HistLens are the per-table history lengths; 0 means the table is
	// indexed by the branch address alone (the bias table). Lengths are at
	// most 63 bits.
	HistLens []uint
	// Threshold is the training margin: weights train whenever the
	// prediction was wrong or the output magnitude is at or below it.
	Threshold int32
	// WeightMin/WeightMax are the saturating weight bounds.
	WeightMin, WeightMax int8
}

// DefaultPerceptronConfig is the registered "perceptron" architecture's
// geometry: a bias table plus three history tables over an approximately
// geometric series, 8-bit weights, and the usual ~1.93*h+14 training
// threshold scaled to the table count.
var DefaultPerceptronConfig = PerceptronConfig{
	TableEntries: 1024,
	HistLens:     []uint{0, 7, 15, 31},
	Threshold:    22,
	WeightMin:    -64,
	WeightMax:    63,
}

// HashedPerceptron is a hashed perceptron branch predictor. Like TAGE it is
// one value shared by both executors: the reference simulator drives it
// through the DirectionPredictor methods, the compiled kernel through Step,
// and UpdateBit is Step without its result, so the two paths cannot
// diverge. Prediction is the sign of the summed selected weights; training
// is the margin rule (train on a mispredict or whenever |sum| <= Threshold)
// with saturating ±1 steps.
type HashedPerceptron struct {
	cfg     PerceptronConfig
	idxBits uint
	mask    uint64
	weights [][]int8
	ghr     uint64

	// scanIdx is sum's scratch, not state: sum writes every table's entry
	// index before Step's training reads it.
	scanIdx []uint64
}

// NewHashedPerceptron builds a hashed perceptron from cfg.
func NewHashedPerceptron(cfg PerceptronConfig) *HashedPerceptron {
	checkPow2(cfg.TableEntries, "perceptron table entries")
	if len(cfg.HistLens) == 0 {
		panic("predict: perceptron needs at least one weight table")
	}
	for _, l := range cfg.HistLens {
		if l > 63 {
			panic(fmt.Sprintf("predict: perceptron history length %d out of [0,63]", l))
		}
	}
	if cfg.Threshold <= 0 {
		panic("predict: perceptron threshold must be positive")
	}
	if cfg.WeightMin >= 0 || cfg.WeightMax <= 0 {
		panic("predict: perceptron weight bounds must straddle zero")
	}
	bits := uint(0)
	for 1<<bits < cfg.TableEntries {
		bits++
	}
	p := &HashedPerceptron{
		cfg:     cfg,
		idxBits: bits,
		mask:    uint64(cfg.TableEntries - 1),
		weights: make([][]int8, len(cfg.HistLens)),
		scanIdx: make([]uint64, len(cfg.HistLens)),
	}
	for i := range p.weights {
		p.weights[i] = make([]int8, cfg.TableEntries)
	}
	return p
}

// index returns weight table i's entry for a site slot under the current
// history.
func (p *HashedPerceptron) index(slot uint64, i int) uint64 {
	l := p.cfg.HistLens[i]
	if l == 0 {
		return (slot ^ slot>>p.idxBits) & p.mask
	}
	return (slot ^ slot>>p.idxBits ^ foldHist(p.ghr, l, p.idxBits) ^ uint64(i)<<1) & p.mask
}

// sum computes the perceptron output for slot, the summed selected weights,
// and leaves each table's entry index in scanIdx.
func (p *HashedPerceptron) sum(slot uint64) int32 {
	var s int32
	scanIdx := p.scanIdx
	for i := range p.weights {
		idx := p.index(slot, i)
		scanIdx[i] = idx
		s += int32(p.weights[i][idx])
	}
	return s
}

// PredictBit returns the predicted direction (1 = taken, the output's sign
// bit) for the site at instruction slot. It mutates no predictor state; it
// writes only the index scratch.
func (p *HashedPerceptron) PredictBit(slot uint64) uint8 {
	if p.sum(slot) >= 0 {
		return 1
	}
	return 0
}

// UpdateBit trains the predictor with the actual outcome of the site at
// slot: Step without its result, so the reference simulator's PredictBit,
// then UpdateBit, trains through the same body as the kernel's Step.
func (p *HashedPerceptron) UpdateBit(slot uint64, taken uint8) { p.Step(slot, taken) }

// Step predicts the site at slot, trains the weights with the actual
// outcome and shifts it into the history, computing each table's index
// once. The margin rule needs the output's magnitude, not just its sign.
// Step returns the prediction made before training, which is what
// PredictBit would have returned.
func (p *HashedPerceptron) Step(slot uint64, taken uint8) uint8 {
	s := p.sum(slot)
	var pred uint8
	if s >= 0 {
		pred = 1
	}
	if pred != taken || abs32(s) <= p.cfg.Threshold {
		for i := range p.weights {
			idx := p.scanIdx[i]
			w := p.weights[i][idx]
			if taken != 0 {
				if w < p.cfg.WeightMax {
					p.weights[i][idx] = w + 1
				}
			} else if w > p.cfg.WeightMin {
				p.weights[i][idx] = w - 1
			}
		}
	}
	p.ghr = p.ghr<<1 | uint64(taken)
	return pred
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// Predict implements DirectionPredictor.
func (p *HashedPerceptron) Predict(ev trace.Event) bool {
	return p.PredictBit(ev.PC/ir.InstrBytes) != 0
}

// Update implements DirectionPredictor.
func (p *HashedPerceptron) Update(ev trace.Event) {
	var bit uint8
	if ev.Taken {
		bit = 1
	}
	p.UpdateBit(ev.PC/ir.InstrBytes, bit)
}

// Name implements DirectionPredictor.
func (p *HashedPerceptron) Name() string {
	return fmt.Sprintf("perceptron-%dx%d", len(p.cfg.HistLens), p.cfg.TableEntries)
}

// History returns the global history register (for tests).
func (p *HashedPerceptron) History() uint64 { return p.ghr }

// Reset implements DirectionPredictor: all weights and history to zero
// (zero weights sum to zero, which predicts taken — the sign convention's
// neutral start).
func (p *HashedPerceptron) Reset() {
	p.ghr = 0
	for i := range p.weights {
		for j := range p.weights[i] {
			p.weights[i][j] = 0
		}
	}
}

// ArchPerceptron is the extension hashed-perceptron architecture
// (DefaultPerceptronConfig geometry).
const ArchPerceptron ArchID = "perceptron"

func init() {
	spec := KernelSpec{Kind: KernelPerceptron, Perceptron: DefaultPerceptronConfig}
	Register(Desc{
		ID: ArchPerceptron, Class: ClassTagged, Grid: GridExtension, Order: 2,
		CostGroup: CostTagged,
		Kernel:    spec,
		New: func(*ir.Program, *profile.Profile) (Simulator, error) {
			return NewStaticSim(NewHashedPerceptron(spec.Perceptron)), nil
		},
	})
}
