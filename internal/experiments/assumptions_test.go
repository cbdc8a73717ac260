package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestWriteSensitivity(t *testing.T) {
	cfg := DefaultWriteSensitivity()
	cfg.CatalogObjects = 40000
	cfg.WriteFractions = []float64{0, 0.10, 0.40}
	cfg.StepDur = 15
	cfg.Discard = 4
	cfg.CalibrationOps = 1200
	res, err := RunWriteSensitivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.WriteFraction > 0 && pt.WriteRate <= 0 {
			t.Errorf("wf=%v: write rate %v", pt.WriteFraction, pt.WriteRate)
		}
		if math.IsNaN(pt.MeanAbsErr) {
			t.Errorf("wf=%v: no prediction", pt.WriteFraction)
		}
	}
	// The read-heavy assumption: at zero writes the error is small; heavy
	// unmodeled write traffic must make the predictions substantially
	// worse than the write-free baseline.
	base := res.Points[0].MeanAbsErr
	heavy := res.Points[2].MeanAbsErr
	if base > 0.10 {
		t.Errorf("write-free baseline error %.1f%% too large", base*100)
	}
	if !(heavy > base) {
		t.Errorf("heavy-write error %.3f not worse than baseline %.3f", heavy, base)
	}
	// The model under test ignores PUTs, so heavy writes only thin the
	// reads it sees and cannot lower its predictions; a model fed the PUT
	// rates would predict the collapse instead.
	for j, sla := range res.SLAs {
		if p0, p2 := res.Points[0].Predicted[j], res.Points[2].Predicted[j]; p2 < p0 {
			t.Errorf("SLA %v: prediction %.4f at %v writes below %.4f without writes", sla, p2, res.Points[2].WriteFraction, p0)
		}
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "write frac") {
		t.Error("render missing header")
	}
	bad := cfg
	bad.WriteFractions = nil
	if _, err := RunWriteSensitivity(bad); err == nil {
		t.Error("empty fractions should fail")
	}
}

func TestWorkloadIndependence(t *testing.T) {
	cfg := DefaultWorkloadIndependence()
	cfg.CatalogObjects = 40000
	cfg.StepDur = 15
	cfg.Discard = 4
	cfg.CalibrationOps = 1200
	res, err := RunWorkloadIndependence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// The paper's claim: calibration is workload-independent, so the one
	// benchmark must keep predicting across skews and size regimes. The
	// large-object variant legitimately stresses the model (long
	// transfers, heavy chunking), so it gets a looser bound.
	for _, pt := range res.Points {
		if math.IsNaN(pt.MeanAbsErr) {
			t.Fatalf("%s: no prediction", pt.Name)
		}
		bound := 0.12
		if strings.Contains(pt.Name, "large objects") {
			bound = 0.20
		}
		if pt.MeanAbsErr > bound {
			t.Errorf("%s: mean abs error %.1f%% — calibration did not transfer", pt.Name, pt.MeanAbsErr*100)
		}
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "baseline") {
		t.Error("render missing variants")
	}
	bad := cfg
	bad.StepDur = 1
	bad.Discard = 2
	if _, err := RunWorkloadIndependence(bad); err == nil {
		t.Error("bad durations should fail")
	}
}
