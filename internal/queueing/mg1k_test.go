package queueing

import (
	"math"
	"testing"

	"cosmodel/internal/dist"
	"cosmodel/internal/lst"
)

func TestMG1KSojournLSTExponentialExact(t *testing.T) {
	// With exponential service the approximation is exact: it must match
	// the M/M/1/K sojourn CDF.
	mu := 150.0
	for _, u := range []float64{0.5, 1.0, 1.6} {
		lam := u * mu
		exact, err := NewMG1K(lam, dist.Exponential{Rate: mu}, 6)
		if err != nil {
			t.Fatal(err)
		}
		closed, _ := NewMM1K(lam, mu, 6)
		tr := exact.SojournLST()
		if math.Abs(tr.Mean-closed.MeanSojourn()) > 1e-9 {
			t.Errorf("u=%v: mean %v, want %v", u, tr.Mean, closed.MeanSojourn())
		}
		for _, x := range []float64{0.005, 0.02, 0.06} {
			got := lst.CDF(inv, tr, x)
			want := closed.SojournCDF(x)
			if math.Abs(got-want) > 1e-5 {
				t.Errorf("u=%v: CDF(%v) = %v, want %v", u, x, got, want)
			}
		}
	}
}

func TestMG1KSojournLSTGammaAgainstSimulation(t *testing.T) {
	svc := dist.Gamma{Shape: 2.5, Rate: 250}
	const lam = 160.0
	q, err := NewMG1K(lam, svc, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := q.SojournLST()
	_, meanSim := simulateMG1K(lam, svc, 5, 300000, 321)
	if math.Abs(tr.Mean-meanSim)/meanSim > 0.06 {
		t.Errorf("approx mean sojourn %v, sim %v", tr.Mean, meanSim)
	}
	// Mean from the transform construction must match Little's law mean.
	if math.Abs(tr.Mean-q.MeanSojourn())/q.MeanSojourn() > 0.05 {
		t.Errorf("transform mean %v vs Little %v", tr.Mean, q.MeanSojourn())
	}
	// LST(0) = 1.
	if got := tr.F(0); math.Abs(real(got)-1) > 1e-9 {
		t.Errorf("LST(0) = %v", got)
	}
}
