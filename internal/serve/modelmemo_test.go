package serve

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"cosmodel/internal/core"
	"cosmodel/internal/dist"
)

// memoCounts reads the engine's model-build and memo counters.
func memoCounts(e *Engine) (builds, hits, misses uint64) {
	return e.builds.Value(), e.memoHits.Value(), e.memoMisses.Value()
}

// freshAnswer evaluates q over slas on a model built for this call alone,
// the path an answer-cache miss took before the memo.
func freshAnswer(t *testing.T, e *Engine, q core.Query, slas []float64) []float64 {
	t.Helper()
	p, err := e.state.snapshotKeyed()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := e.build(e.props.Load(), p.ms, q, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.Eval(context.Background(), slas, q)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// sameBits fails unless every prediction's meet ratio equals want's bit for
// bit.
func sameBits(t *testing.T, what string, got []Prediction, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d predictions, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].MeetRatio) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d]: meet ratio %v, fresh build %v", what, i, got[i].MeetRatio, want[i])
		}
	}
}

// TestModelMemoBuildsOncePerOperatingPoint: two cold requests at an
// unchanged operating point build one model between them, the second is
// evaluated on the memoized one with the answer a fresh build gives, and
// the counters are exported.
func TestModelMemoBuildsOncePerOperatingPoint(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ingestAll(t, eng, 50)
	b0, h0, m0 := memoCounts(eng)
	if _, err := eng.Predict([]float64{0.05}); err != nil {
		t.Fatal(err)
	}
	got, err := eng.Predict([]float64{0.06, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b, h, m := memoCounts(eng)
	if b-b0 != 1 || h-h0 != 1 || m-m0 != 1 {
		t.Errorf("two cold requests: %d builds, %d memo hits, %d misses; want 1, 1, 1", b-b0, h-h0, m-m0)
	}
	sameBits(t, "memoized", got, freshAnswer(t, eng, core.Query{}, []float64{0.06, 0.2}))
	b, _, _ = memoCounts(eng)

	var prom bytes.Buffer
	if err := eng.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cosserve_model_builds_total", "cosserve_model_memo_hits_total", "cosserve_model_memo_misses_total"} {
		if !strings.Contains(prom.String(), name+" ") {
			t.Errorf("/metrics/prom lacks %s", name)
		}
	}

	// A new operating point is a new key: the next cold request rebuilds.
	ingestAll(t, eng, 80)
	if _, err := eng.Predict([]float64{0.07}); err != nil {
		t.Fatal(err)
	}
	if b2, _, _ := memoCounts(eng); b2-b != 1 {
		t.Errorf("cold request at a new operating point built %d models, want 1", b2-b)
	}
}

// TestModelMemoWriteQueryBuildsOnce: the plain and write blocks of one
// /predict share the reads+writes model, and the coded variant keeps its
// own slot, each answer bit-identical to a fresh build.
func TestModelMemoWriteQueryBuildsOnce(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ingestMixed(t, eng, 40, 10)
	slas := []float64{0.02, 0.06, 0.15}
	write := &WriteSpec{N: 3, W: 2}
	b0, _, _ := memoCounts(eng)
	resp, err := eng.answerPredict(context.Background(), PredictRequest{SLAs: slas, Write: write})
	if err != nil {
		t.Fatal(err)
	}
	if b, _, _ := memoCounts(eng); b-b0 != 1 {
		t.Errorf("a write query built %d models, want 1", b-b0)
	}
	sameBits(t, "plain", resp.Predictions, freshAnswer(t, eng, core.Query{}, slas))
	sameBits(t, "write", resp.Write.Predictions, freshAnswer(t, eng, write.query(), slas))

	coded := &CodedReadSpec{N: 6, K: 4}
	b0, _, _ = memoCounts(eng)
	resp, err = eng.answerPredict(context.Background(), PredictRequest{SLAs: slas, Coded: coded})
	if err != nil {
		t.Fatal(err)
	}
	more := []float64{0.03, 0.09}
	resp2, err := eng.answerPredict(context.Background(), PredictRequest{SLAs: more, Coded: coded, Write: write})
	if err != nil {
		t.Fatal(err)
	}
	if b, _, _ := memoCounts(eng); b-b0 != 1 {
		t.Errorf("coded queries built %d models, want 1 (the coded slot)", b-b0)
	}
	sameBits(t, "coded", resp.CodedRead.Predictions, freshAnswer(t, eng, coded.query(), slas))
	sameBits(t, "coded again", resp2.CodedRead.Predictions, freshAnswer(t, eng, coded.query(), more))
	sameBits(t, "write again", resp2.Write.Predictions, freshAnswer(t, eng, write.query(), more))
}

// TestModelMemoRecalibrate: after Recalibrate no answer comes from a model
// built under the old properties — the next cold request rebuilds, and
// answers exactly as an engine started with the new properties does.
func TestModelMemoRecalibrate(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ingestAll(t, eng, 50)
	if _, err := eng.Predict([]float64{0.05}); err != nil {
		t.Fatal(err)
	}
	p, err := eng.state.snapshotKeyed()
	if err != nil {
		t.Fatal(err)
	}
	old, err := eng.model(p, core.Query{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	props := testProps()
	props.DataDisk = dist.NewGammaMeanSCV(12e-3, 0.4)
	if err := eng.Recalibrate(props); err != nil {
		t.Fatal(err)
	}
	b0, _, _ := memoCounts(eng)
	got, err := eng.Predict([]float64{0.05, 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if b, _, _ := memoCounts(eng); b-b0 != 1 {
		t.Errorf("first cold request after Recalibrate built %d models, want 1", b-b0)
	}
	if sys, err := eng.model(p, core.Query{}, 1); err != nil || sys == old {
		t.Errorf("memo serves the model built under the old properties (err %v)", err)
	}

	cfg := testConfig()
	cfg.Props = props
	ref, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ingestAll(t, ref, 50)
	want, err := ref.Predict([]float64{0.05, 0.08})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i].MeetRatio) != math.Float64bits(want[i].MeetRatio) {
			t.Errorf("SLA %v after Recalibrate: %v, engine started recalibrated %v", got[i].SLA, got[i].MeetRatio, want[i].MeetRatio)
		}
	}
}

// TestModelMemoPerEngine: two engines in one process at the same
// operating point each build their own model, so each engine's observer
// spans and inverter-fallback counting keep firing.
func TestModelMemoPerEngine(t *testing.T) {
	newEngine := func(spans *atomic.Int64) *Engine {
		cfg := testConfig()
		cfg.Opts.Inverter = nanInverter{}
		cfg.Opts.Observer = func(core.EvalEvent) { spans.Add(1) }
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		ingestAll(t, e, 50)
		return e
	}
	var spansA, spansB atomic.Int64
	a, b := newEngine(&spansA), newEngine(&spansB)
	if _, err := a.Predict([]float64{0.05}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Predict([]float64{0.05}); err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"first": a, "second": b} {
		if builds, _, misses := memoCounts(e); builds != 1 || misses != 1 {
			t.Errorf("%s engine: %d builds, %d memo misses; want 1 and 1", name, builds, misses)
		}
		if st := e.Stats(); st.Fallbacks < 1 {
			t.Errorf("%s engine counted %d inverter fallbacks, want ≥1", name, st.Fallbacks)
		}
	}
	if spansA.Load() < 1 || spansB.Load() < 1 {
		t.Errorf("observer spans: first engine %d, second %d; want ≥1 each", spansA.Load(), spansB.Load())
	}
	if sa, sb := a.models.slots[0].sys, b.models.slots[0].sys; sa == nil || sa == sb {
		t.Errorf("the engines share a memoized model (%p, %p)", sa, sb)
	}
}

// TestAdviseMatchesReferenceLadder: for random SLAs and targets,
// AdviseContext's admission rate equals bit for bit the climb from rung 0
// (anchor 0, the search as it was before the anchored ladder) over the
// same margins.
func TestAdviseMatchesReferenceLadder(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ingestAll(t, eng, 50)
	n := 200
	if raceEnabled || testing.Short() {
		n = 40
	}
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	// Every branch of the ladder: no admissible rate, an edge below the
	// current rate and one above it.
	var none, below, above int
	for i := 0; i < n; i++ {
		sla := 0.005 * math.Pow(100, rng.Float64())
		target := 0.5 + 0.499*rng.Float64()
		adv, err := eng.AdviseContext(ctx, core.Query{}, sla, target)
		if err != nil {
			t.Fatal(err)
		}
		p, err := eng.state.snapshotKeyed()
		if err != nil {
			t.Fatal(err)
		}
		margin := eng.adviseMargin(p, core.Query{}, testGrid(t, sla), target)
		want, err := core.MaxRateWhereValueContext(ctx, margin, p.rate/64, p.rate/200, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(adv.MaxAdmissibleRate) != math.Float64bits(want) {
			t.Errorf("sla %v target %v: max admissible rate %v, climb from rung 0 %v", sla, target, adv.MaxAdmissibleRate, want)
		}
		switch {
		case want == 0:
			none++
		case want < p.rate:
			below++
		default:
			above++
		}
	}
	if none == 0 || below == 0 || above == 0 {
		t.Errorf("the draws reached %d infeasible, %d below-current and %d above-current answers; want each", none, below, above)
	}
}

// TestModelMemoConcurrent drives the memo from several goroutines at once
// — plain and coded cold grids while the operating point and the served
// properties move — for the race detector; every answer stays a
// probability.
func TestModelMemoConcurrent(t *testing.T) {
	eng, err := NewEngine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ingestAll(t, eng, 50)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			batch := make([]Observation, eng.Config().Devices)
			for d := range batch {
				batch[d] = obsAtRate(d, 40+float64(i%3)*10)
			}
			if err := eng.Ingest(batch); err != nil {
				t.Error(err)
			}
			if i%5 == 0 {
				if err := eng.Recalibrate(testProps()); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			var err error
			for i := 0; i < 20 && err == nil; i++ {
				q := core.Query{}
				if i%2 == 1 {
					q = CodedReadSpec{N: 3, K: 2}.query()
				}
				var preds []Prediction
				preds, err = eng.PredictContext(context.Background(), q, []float64{0.01 + 0.001*float64(g*20+i)})
				if err == nil && !(preds[0].MeetRatio >= 0 && preds[0].MeetRatio <= 1) {
					t.Errorf("meet ratio %v", preds[0].MeetRatio)
				}
			}
			errs <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	<-done
}
