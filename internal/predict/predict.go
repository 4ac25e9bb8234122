// Package predict implements the branch prediction architectures the paper
// evaluates — the static FALLTHROUGH, BT/FNT and LIKELY schemes, direct
// mapped and correlation (gshare) pattern history tables, branch target
// buffers, and a return-address stack — together with trace-driven
// architecture simulators that charge misfetch and mispredict penalties by
// the paper's rules.
package predict

import (
	"fmt"

	"balign/internal/trace"
)

// Default penalties from the paper (§6): a misfetched branch costs one
// cycle, a mispredicted branch four cycles.
const (
	DefaultMisfetchPenalty   = 1
	DefaultMispredictPenalty = 4
)

// DirectionPredictor predicts the outcome of conditional branches. Predict
// must not mutate state; Update is called exactly once per conditional event
// after Predict.
type DirectionPredictor interface {
	// Predict returns true when the branch is predicted taken.
	Predict(ev trace.Event) bool
	// Update trains the predictor with the actual outcome.
	Update(ev trace.Event)
	// Name identifies the predictor.
	Name() string
	// Reset restores the initial state.
	Reset()
}

// Result accumulates the outcome of simulating one trace on one
// architecture.
type Result struct {
	// Events is the total number of break events processed.
	Events uint64
	// Misfetches and Mispredicts count penalty events.
	Misfetches  uint64
	Mispredicts uint64

	// Conditional branch accounting.
	Cond        uint64
	CondTaken   uint64
	CondCorrect uint64

	// Return accounting.
	Rets        uint64
	RetsCorrect uint64

	// ByKind counts events by break kind.
	ByKind [8]uint64
}

// BEP returns the branch execution penalty in cycles: the paper's metric
// combining misfetch and mispredict costs.
func (r Result) BEP(misfetchPenalty, mispredictPenalty uint64) uint64 {
	return r.Misfetches*misfetchPenalty + r.Mispredicts*mispredictPenalty
}

// CondAccuracy returns the fraction of conditional branches predicted
// correctly (0 when none were seen).
func (r Result) CondAccuracy() float64 {
	if r.Cond == 0 {
		return 0
	}
	return float64(r.CondCorrect) / float64(r.Cond)
}

// Simulator processes a control-transfer event stream and accumulates a
// Result. Implementations are trace.Sinks so they can be attached directly
// to the VM or walker.
type Simulator interface {
	trace.Sink
	Result() Result
	Reset()
	Name() string
}

// Counter2 is a 2-bit saturating up/down counter, the building block of the
// PHT and BTB predictors.
type Counter2 uint8

// Counter2Init is the weakly-not-taken initial counter state.
const Counter2Init Counter2 = 1

// Taken reports whether the counter currently predicts taken.
func (c Counter2) Taken() bool { return c >= 2 }

// Update moves the counter toward the outcome, saturating at 0 and 3.
func (c Counter2) Update(taken bool) Counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

func checkPow2(n int, what string) {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("predict: %s must be a positive power of two, got %d", what, n))
	}
}
