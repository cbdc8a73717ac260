package experiments

import (
	"math"
	"testing"

	"cosmodel/internal/core"
)

// TestEvaluateSweepParallelMatchesSequential checks the determinism
// guarantee of the pooled sweep evaluator: fanning rate steps (and the
// device mixtures inside them) across workers produces exactly the results
// of a fully sequential evaluation, step for step and bit for bit, with the
// same skip decisions and reasons.
func TestEvaluateSweepParallelMatchesSequential(t *testing.T) {
	data, err := RunSweep(smallS1())
	if err != nil {
		t.Fatal(err)
	}
	sc := smallS1()
	seq := EvaluateSweep(sc, data, core.Options{Workers: 1})
	par := EvaluateSweep(sc, data, core.Options{Workers: 8})
	def := EvaluateSweep(sc, data)
	for _, res := range []*ScenarioResult{par, def} {
		if len(res.Steps) != len(seq.Steps) {
			t.Fatalf("step count %d, want %d", len(res.Steps), len(seq.Steps))
		}
		for i := range seq.Steps {
			a, b := res.Steps[i], seq.Steps[i]
			if a.Rate != b.Rate || a.Skipped != b.Skipped || a.Reason != b.Reason || a.Hedges != b.Hedges {
				t.Fatalf("step %d: rate/skip mismatch: %+v vs %+v", i, a, b)
			}
			for _, pair := range [][2][]float64{
				{a.Our, b.Our}, {a.ODOPR, b.ODOPR}, {a.NoWTA, b.NoWTA}, {a.OurBE, b.OurBE},
			} {
				for k := range pair[0] {
					x, y := pair[0][k], pair[1][k]
					if math.Float64bits(x) != math.Float64bits(y) {
						t.Errorf("step %d sla %d: parallel %v, sequential %v", i, k, x, y)
					}
				}
			}
		}
	}
}
