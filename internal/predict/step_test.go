package predict

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// stepEvent is one conditional event of a (slot, outcome) stream.
type stepEvent struct {
	slot  uint64
	taken uint8
}

// refTAGELookup is the provider/alternate scan as it was before Step: it
// returns each component's entry index instead of leaving it in scratch.
func refTAGELookup(t *TAGE, slot uint64) (provider, alt int, pIdx, aIdx uint64) {
	provider, alt = -1, -1
	for i := len(t.cfg.HistLens) - 1; i >= 0; i-- {
		idx := t.index(slot, i)
		if t.tags[i][idx] != t.tag(slot, i) {
			continue
		}
		if provider < 0 {
			provider, pIdx = i, idx
		} else {
			alt, aIdx = i, idx
			break
		}
	}
	return provider, alt, pIdx, aIdx
}

// refTAGEPredOf reads component (table, idx)'s direction bit; table -1 is
// the bimodal base.
func refTAGEPredOf(t *TAGE, slot uint64, table int, idx uint64) uint8 {
	if table < 0 {
		if t.base[slot&t.baseMask].Taken() {
			return 1
		}
		return 0
	}
	return t.ctrs[table][idx] >> 2 & 1
}

// refTAGEUpdate is TAGE's training rule as it was before Step, kept as
// Step's oracle: it repeats the lookup from the pre-update state and
// recomputes every allocation candidate's index and tag.
func refTAGEUpdate(t *TAGE, slot uint64, taken uint8) {
	provider, alt, pIdx, aIdx := refTAGELookup(t, slot)
	pred := refTAGEPredOf(t, slot, provider, pIdx)
	altPred := pred
	if provider >= 0 {
		if alt >= 0 {
			altPred = refTAGEPredOf(t, slot, alt, aIdx)
		} else {
			altPred = refTAGEPredOf(t, slot, -1, 0)
		}
	}
	if provider >= 0 {
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
	if pred != taken && provider < len(t.cfg.HistLens)-1 {
		allocated := false
		for j := provider + 1; j < len(t.cfg.HistLens); j++ {
			idx := t.index(slot, j)
			if t.us[j][idx] == 0 {
				t.tags[j][idx] = t.tag(slot, j)
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
				idx := t.index(slot, j)
				if t.us[j][idx] > 0 {
					t.us[j][idx]--
				}
			}
		}
	}
	t.ghr = t.ghr<<1 | uint64(taken)
}

// refPerceptronUpdate is the perceptron's training rule as it was before
// Step, kept as Step's oracle: it sums the selected weights from the
// pre-update state, then recomputes every table's index to train.
func refPerceptronUpdate(p *HashedPerceptron, slot uint64, taken uint8) {
	var s int32
	for i := range p.weights {
		s += int32(p.weights[i][p.index(slot, i)])
	}
	var pred uint8
	if s >= 0 {
		pred = 1
	}
	if pred != taken || abs32(s) <= p.cfg.Threshold {
		for i := range p.weights {
			idx := p.index(slot, i)
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
}

// checkTAGEStep drives one TAGE through Step and another through the
// reference update over stream. Every Step must return what PredictBit
// returned just before it, and the two must end in identical state.
func checkTAGEStep(t testing.TB, cfg TAGEConfig, stream []stepEvent) {
	t.Helper()
	got, ref := NewTAGE(cfg), NewTAGE(cfg)
	for i, e := range stream {
		want := got.PredictBit(e.slot)
		if p := got.Step(e.slot, e.taken); p != want {
			t.Fatalf("event %d (slot %d): Step returned %d, PredictBit %d", i, e.slot, p, want)
		}
		refTAGEUpdate(ref, e.slot, e.taken)
	}
	if got.ghr != ref.ghr {
		t.Fatalf("history %#x, reference %#x", got.ghr, ref.ghr)
	}
	if !slices.Equal(got.base, ref.base) {
		t.Fatal("bimodal base diverged from the reference")
	}
	for i := range cfg.HistLens {
		if !slices.Equal(got.tags[i], ref.tags[i]) {
			t.Fatalf("table %d tags diverged from the reference", i)
		}
		if !slices.Equal(got.ctrs[i], ref.ctrs[i]) {
			t.Fatalf("table %d counters diverged from the reference", i)
		}
		if !slices.Equal(got.us[i], ref.us[i]) {
			t.Fatalf("table %d useful bits diverged from the reference", i)
		}
	}
}

// checkPerceptronStep is checkTAGEStep for the hashed perceptron.
func checkPerceptronStep(t testing.TB, cfg PerceptronConfig, stream []stepEvent) {
	t.Helper()
	got, ref := NewHashedPerceptron(cfg), NewHashedPerceptron(cfg)
	for i, e := range stream {
		want := got.PredictBit(e.slot)
		if p := got.Step(e.slot, e.taken); p != want {
			t.Fatalf("event %d (slot %d): Step returned %d, PredictBit %d", i, e.slot, p, want)
		}
		refPerceptronUpdate(ref, e.slot, e.taken)
	}
	if got.ghr != ref.ghr {
		t.Fatalf("history %#x, reference %#x", got.ghr, ref.ghr)
	}
	for i := range cfg.HistLens {
		if !slices.Equal(got.weights[i], ref.weights[i]) {
			t.Fatalf("table %d weights diverged from the reference", i)
		}
	}
}

// branchyStream draws a seeded (slot, outcome) stream over a few dozen
// sites whose behaviours mix bias, short loops and correlation with the
// previous outcomes, so tags match at several history lengths and
// mispredicts keep allocating and aging.
func branchyStream(seed int64, n int) []stepEvent {
	rng := rand.New(rand.NewSource(seed))
	const sites = 40
	slots := make([]uint64, sites)
	for i := range slots {
		slots[i] = uint64(rng.Intn(1 << 14))
	}
	var hist uint64
	out := make([]stepEvent, n)
	for i := range out {
		s := rng.Intn(sites)
		var taken uint8
		switch s % 4 {
		case 0: // biased
			if rng.Intn(8) != 0 {
				taken = 1
			}
		case 1: // loop of period s%7+2
			if uint64(i)%uint64(s%7+2) != 0 {
				taken = 1
			}
		case 2: // correlated with an earlier outcome
			taken = uint8(hist>>(s%5+1)) & 1
		default: // noise
			taken = uint8(rng.Intn(2))
		}
		out[i] = stepEvent{slots[s], taken}
		hist = hist<<1 | uint64(taken)
	}
	return out
}

// TestTaggedStepMatchesReference is Step's oracle over seeded streams: the
// registered geometries and small ones whose allocation, aging and
// saturation fire often.
func TestTaggedStepMatchesReference(t *testing.T) {
	const events = 20000
	for seed := int64(1); seed <= 3; seed++ {
		stream := branchyStream(seed, events)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Run("tage/default", func(t *testing.T) { checkTAGEStep(t, DefaultTAGEConfig, stream) })
			t.Run("tage/tiny", func(t *testing.T) { checkTAGEStep(t, tinyTAGE, stream) })
			t.Run("perceptron/default", func(t *testing.T) { checkPerceptronStep(t, DefaultPerceptronConfig, stream) })
			t.Run("perceptron/tiny", func(t *testing.T) { checkPerceptronStep(t, tinyPerceptron, stream) })
		})
	}
}

// FuzzTaggedStep checks Step's oracle on the small geometries over
// arbitrary streams: each input byte is one event, its high seven bits
// the slot and its low bit the outcome. Its seeds are in
// testdata/fuzz/FuzzTaggedStep.
func FuzzTaggedStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		stream := make([]stepEvent, len(in))
		for i, b := range in {
			stream[i] = stepEvent{uint64(b >> 1), b & 1}
		}
		checkTAGEStep(t, tinyTAGE, stream)
		checkPerceptronStep(t, tinyPerceptron, stream)
	})
}

// TestZeroWidthGeometriesTerminate runs the geometries whose hash folds
// are zero bits wide — a one-bit TAGE tag's second fold, a one-entry table's
// index — for a few hundred steps under a bounded wait: a zero-wide fold
// must return 0, not shift a nonzero history by zero forever.
func TestZeroWidthGeometriesTerminate(t *testing.T) {
	type stepper interface {
		PredictBit(uint64) uint8
		Step(uint64, uint8) uint8
	}
	cases := []struct {
		name string
		p    stepper
	}{
		{"tage/tag-bits-1", NewTAGE(TAGEConfig{BaseEntries: 16, TableEntries: 16, TagBits: 1, HistLens: []uint{3}})},
		{"tage/table-entries-1", NewTAGE(TAGEConfig{BaseEntries: 16, TableEntries: 1, TagBits: 4, HistLens: []uint{3, 7}})},
		{"perceptron/table-entries-1", NewHashedPerceptron(PerceptronConfig{
			TableEntries: 1, HistLens: []uint{0, 5}, Threshold: 4, WeightMin: -8, WeightMax: 7,
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 300; i++ {
					slot := uint64(i*7) % 13
					c.p.PredictBit(slot)
					c.p.Step(slot, uint8(i/2)&1)
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("300 steps did not finish: a zero-width fold does not terminate")
			}
		})
	}
}
