package predict

import "testing"

// tinyPerceptron keeps the tables small enough to saturate in a short test.
var tinyPerceptron = PerceptronConfig{
	TableEntries: 64,
	HistLens:     []uint{0, 3, 7, 15},
	Threshold:    10,
	WeightMin:    -16,
	WeightMax:    15,
}

// TestPerceptronLearnsBiasAndHistory checks the two regimes: a strongly
// biased branch trains the bias table to perfect prediction, and an
// alternating branch (hopeless for any history-free counter) is linearly
// separable on the last outcome, so the history tables learn it exactly.
func TestPerceptronLearnsBiasAndHistory(t *testing.T) {
	p := NewHashedPerceptron(tinyPerceptron)
	if acc := patternAccuracy(p, 3, []uint8{1}, 100); acc != 1.0 {
		t.Errorf("accuracy on always-taken = %v, want 1.0", acc)
	}
	p.Reset()
	if acc := patternAccuracy(p, 3, []uint8{0}, 100); acc != 1.0 {
		t.Errorf("accuracy on never-taken = %v, want 1.0", acc)
	}
	p.Reset()
	if acc := patternAccuracy(p, 3, []uint8{1, 0}, 200); acc != 1.0 {
		t.Errorf("accuracy on alternating pattern = %v, want 1.0", acc)
	}
}

// TestPerceptronWeightsSaturate checks training clamps weights to the
// configured bounds instead of wrapping.
func TestPerceptronWeightsSaturate(t *testing.T) {
	p := NewHashedPerceptron(tinyPerceptron)
	for i := 0; i < 1000; i++ {
		p.UpdateBit(5, 1)
	}
	for i, tbl := range p.weights {
		for j, w := range tbl {
			if w < tinyPerceptron.WeightMin || w > tinyPerceptron.WeightMax {
				t.Fatalf("weights[%d][%d] = %d escaped bounds [%d,%d]",
					i, j, w, tinyPerceptron.WeightMin, tinyPerceptron.WeightMax)
			}
		}
	}
	if p.PredictBit(5) != 1 {
		t.Error("saturated always-taken branch predicted not-taken")
	}
}

// TestPerceptronPredictIsPure checks PredictBit mutates nothing, exactly as
// the TAGE purity test does: the reference simulator calls PredictBit,
// then UpdateBit, so the update must train the state the prediction read.
func TestPerceptronPredictIsPure(t *testing.T) {
	a, b := NewHashedPerceptron(tinyPerceptron), NewHashedPerceptron(tinyPerceptron)
	for i := 0; i < 500; i++ {
		slot, taken := uint64(i*11)%89, uint8(i*i)%2
		a.PredictBit(slot)
		a.PredictBit(slot)
		a.UpdateBit(slot, taken)
		b.UpdateBit(slot, taken)
	}
	for slot := uint64(0); slot < 89; slot++ {
		if a.PredictBit(slot) != b.PredictBit(slot) {
			t.Fatalf("state diverged at slot %d: PredictBit is not pure", slot)
		}
	}
	if a.History() != b.History() {
		t.Fatalf("history diverged: %#x vs %#x", a.History(), b.History())
	}
}

// TestPerceptronResetRestoresInitialState checks a reset predictor replays
// a sequence exactly as a fresh one does.
func TestPerceptronResetRestoresInitialState(t *testing.T) {
	warm := NewHashedPerceptron(tinyPerceptron)
	for i := 0; i < 1000; i++ {
		warm.UpdateBit(uint64(i%31), uint8((i/5)%2))
	}
	warm.Reset()
	fresh := NewHashedPerceptron(tinyPerceptron)
	for i := 0; i < 300; i++ {
		slot, taken := uint64(i*3)%31, uint8(i%5%2)
		if got, want := warm.PredictBit(slot), fresh.PredictBit(slot); got != want {
			t.Fatalf("step %d: reset predictor predicts %d, fresh predicts %d", i, got, want)
		}
		warm.UpdateBit(slot, taken)
		fresh.UpdateBit(slot, taken)
	}
}
