package core

import (
	"sync"
	"testing"

	"cosmodel/internal/parallel"
)

// eventSink collects EvalEvents; safe for the concurrent callbacks the
// Observer contract allows.
type eventSink struct {
	mu     sync.Mutex
	events []EvalEvent
}

func (s *eventSink) record(e EvalEvent) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *eventSink) byOp(op string) []EvalEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []EvalEvent
	for _, e := range s.events {
		if e.Op == op {
			out = append(out, e)
		}
	}
	return out
}

func TestObserverSpans(t *testing.T) {
	sink := &eventSink{}
	d := testDeployment()
	d.Opts.Observer = sink.record
	sys, err := d.Model(240)
	if err != nil {
		t.Fatal(err)
	}

	if v := sys.CDF(0.050); v <= 0 || v > 1 {
		t.Fatalf("CDF = %v", v)
	}
	cdf := sink.byOp("cdf")
	if len(cdf) != 1 {
		t.Fatalf("cdf events = %d, want 1", len(cdf))
	}
	e := cdf[0]
	// testDeployment is homogeneous: 4 devices collapse into 1 group. The
	// default Euler inverter exposes 27 quadrature nodes; one threshold is
	// one probe.
	if e.Groups != 1 || e.Nodes != 27 || e.Probes != 1 || e.Err != nil {
		t.Errorf("cdf event = %+v", e)
	}
	if e.Duration <= 0 {
		t.Errorf("cdf duration = %v", e.Duration)
	}

	if v, err := evalAtContext(nil, sys, backendQ, 0.050); err != nil || v <= 0 {
		t.Fatalf("backend Eval = %v, %v", v, err)
	}
	if got := sink.byOp("backend_cdf"); len(got) != 1 {
		t.Errorf("backend_cdf events = %d, want 1", len(got))
	}
	if _, err := sys.Eval(nil, []float64{0.01, 0.05, 0.1}); err != nil {
		t.Fatal(err)
	}
	if got := sink.byOp("cdf_batch"); len(got) != 1 || got[0].Probes != 3 {
		t.Errorf("cdf_batch events = %+v, want one with 3 probes", got)
	}

	if q, err := sys.Quantile(nil, Query{}, 0.95, 0); err != nil || q <= 0 {
		t.Fatalf("Quantile = %v, %v", q, err)
	}
	qe := sink.byOp("quantile")
	if len(qe) != 1 {
		t.Fatalf("quantile events = %d, want 1", len(qe))
	}
	if qe[0].Probes < 10 {
		t.Errorf("quantile probes = %d, want bisection-scale count", qe[0].Probes)
	}

	rate, err := MaxAdmissibleRate(d, 0.050, 0.9)
	if err != nil || rate <= 0 {
		t.Fatalf("MaxAdmissibleRate = %v, %v", rate, err)
	}
	ae := sink.byOp("max_admissible_rate")
	if len(ae) != 1 {
		t.Fatalf("max_admissible_rate events = %d, want 1", len(ae))
	}
	if ae[0].Probes < 2 {
		t.Errorf("admission probes = %d", ae[0].Probes)
	}
	// Each admission probe builds and evaluates a model with the same
	// Observer, so nested cdf spans must have fired too.
	if nested := sink.byOp("cdf"); len(nested) < ae[0].Probes {
		t.Errorf("nested cdf events = %d, want >= %d probes", len(nested), ae[0].Probes)
	}
}

func TestOptionsPoolInjection(t *testing.T) {
	shared := parallel.New(3)
	o := Options{Pool: shared, Workers: 1}
	if got := o.pool(); got != shared {
		t.Errorf("pool() = %p, want injected %p", got, shared)
	}
	if got := (Options{Workers: 1}).pool(); got != nil {
		t.Errorf("Workers=1 pool() = %p, want nil", got)
	}

	// The injected pool must actually carry the evaluation: check its task
	// meter advances when a wide mixture is evaluated through it.
	d := testDeployment()
	d.Devices = minDevicesParallel
	d.Opts.Pool = shared
	before := shared.Tasks()
	// Distinct device models per slot so the mixture does not collapse.
	sys := buildHeterogeneous(t, d)
	if v := sys.CDF(0.050); v <= 0 {
		t.Fatalf("CDF = %v", v)
	}
	if shared.Tasks() <= before {
		t.Errorf("injected pool saw no tasks (before=%d after=%d)", before, shared.Tasks())
	}
	if shared.Busy() != 0 {
		t.Errorf("Busy = %d after evaluation, want 0", shared.Busy())
	}
}

// buildHeterogeneous assembles a system whose device slots are distinct
// model instances, so the mixture stays minDevicesParallel groups wide.
func buildHeterogeneous(t *testing.T, d Deployment) *SystemModel {
	t.Helper()
	rate := 240.0
	devs := make([]*DeviceModel, d.Devices)
	for i := range devs {
		m := d.Metrics(rate)
		m.Rate *= 1 + 0.01*float64(i) // distinct operating points
		dev, err := NewDeviceModel(d.Props, m, d.Opts)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	fe, err := NewFrontendModel(rate, d.FrontendProcs, d.Props.ParseFE)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemModel(fe, devs, d.Opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
