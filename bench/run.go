package main

import (
	"context"
	"fmt"
	"io"
	"time"
)

// metricDef names one end-to-end metric and its unit; BENCHMARK.json
// carries the same list with directions and bounds.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a run. Every time metric is a ratio to the
// null server measured in alternating slices (see null.go): the host this
// benchmark runs on changes speed by up to 2x within seconds, and the
// ratio cancels that while keeping the relative change a commit makes.
var endToEnd = []metricDef{
	{"capacity_vs_null", "ratio"},
	{"p50_vs_null", "ratio"},
	{"p90_vs_null", "ratio"},
	{"bg_p50_vs_null", "ratio"},
	{"cpu_vs_null", "ratio"},
	{"rss_mb", "MiB"},
	{"setup_s", "s"},
}

// runConfig fixes how one workload run is measured.
type runConfig struct {
	seed    int64
	seconds float64 // measured time, workload and null server slices together
	conns   int     // keep-alive connections of each generator
	// start launches the workload's servers and startNull the null server
	// (the binaries, or in-process servers in tests).
	start     func(w *workload) (*deployment, error)
	startNull func() (*deployment, error)
	goldenDir string
	setups    int           // set-ups per run; setup_s is their median
	warmup    time.Duration // unmeasured slices before the measured ones
}

// The measured time alternates a slice of the workload with a slice of the
// null server. A pair lasts 0.4 s, shorter than the swings of the host's
// speed, so both sides of a pair run on the same host. The null server's
// slice is the shorter: it answers ~25 000 requests/s, so 0.1 s measures it
// well enough.
const (
	workSlice = 300 * time.Millisecond
	nullSlice = 100 * time.Millisecond
)

// side is what one server configuration did over the measured slices.
type side struct {
	out   []outcome     // every outcome of its slices
	rates []float64     // per slice: correct primary answers per second
	p50s  []float64     // per slice: primary latency median, seconds
	p90s  []float64     // per slice: primary latency p90, seconds
	cpu   time.Duration // its processes' CPU over the whole phase, the other side's slices included
	ok    int           // correct primary answers
}

// result is one workload run.
type result struct {
	workload  string
	seed      int64
	metrics   map[string]float64
	attempted int
	failed    int
	// details for the human report
	setups []float64
	sides  [2]side               // [0] the workload, [1] the null server
	raw    [2]map[string]float64 // rawNames per side
}

// setUp launches the servers, feeds the warm ingest and passes the
// correctness gate; its duration is one setup_s sample.
func setUp(w *workload, cfg runConfig, gold *goldenFile) (*deployment, time.Duration, error) {
	t0 := time.Now()
	d, err := cfg.start(w)
	if err != nil {
		return nil, 0, err
	}
	if err := warmIngest(d.target, w); err != nil {
		d.stop()
		return nil, 0, err
	}
	if err := gate(d, w, gold); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*result, error) {
	primary, background := w.inputs(cfg.seed)
	gold, err := loadGolden(cfg.goldenDir, w.name)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name, seed: cfg.seed, metrics: map[string]float64{}}
	var d *deployment
	for i := 0; i < cfg.setups; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		dep, took, err := setUp(w, cfg, gold)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, took.Seconds())
		if i < cfg.setups-1 {
			dep.stop()
		} else {
			d = dep
		}
	}
	defer d.stop()
	res.metrics["setup_s"] = median(res.setups)
	null, err := cfg.startNull()
	if err != nil {
		return nil, err
	}
	defer null.stop()

	gens := [2]*generator{
		newGenerator(d.target, &primary, &background, cfg.conns, cfg.seed),
		newGenerator(null.target, &primary, &background, cfg.conns, cfg.seed),
	}
	gens[1].check = false
	for _, g := range gens {
		defer g.close()
	}
	deps := [2]*deployment{d, null}
	pair := workSlice + nullSlice
	if _, err := alternate(ctx, deps, gens, int(cfg.warmup/pair)); err != nil {
		return nil, err
	}
	if res.sides, err = alternate(ctx, deps, gens, int(time.Duration(cfg.seconds*float64(time.Second))/pair)); err != nil {
		return nil, err
	}
	if err := res.derive(); err != nil {
		return nil, err
	}
	if res.metrics["rss_mb"], err = peakRSS(d.pids); err != nil {
		return nil, err
	}
	return res, ctx.Err()
}

// alternate drives pairs slice pairs, the workload's slice then the null
// server's, and returns both sides with each one's CPU over all of them.
func alternate(ctx context.Context, deps [2]*deployment, gens [2]*generator, pairs int) ([2]side, error) {
	var sides [2]side
	var cpu0 [2]time.Duration
	for s := range sides {
		t, err := cpuTime(deps[s].pids)
		if err != nil {
			return sides, err
		}
		cpu0[s] = t
	}
	for i := 0; i < pairs && ctx.Err() == nil; i++ {
		for s, d := range [2]time.Duration{workSlice, nullSlice} {
			g := gens[s]
			r := g.drive(ctx, g.schedule(0, bgRate, d), d)
			ok, last := 0, r.start
			for j := range r.out {
				o := &r.out[j]
				if o.stream == primaryStream && o.ok() {
					ok++
				}
				last = max(last, o.done)
			}
			sd := &sides[s]
			sd.out = append(sd.out, r.out...)
			sd.ok += ok
			if last > r.start {
				lat := latencies(r.out, primaryStream)
				sd.rates = append(sd.rates, float64(ok)/(last-r.start).Seconds())
				sd.p50s = append(sd.p50s, quantile(lat, 0.5))
				sd.p90s = append(sd.p90s, quantile(lat, 0.9))
			}
		}
	}
	for s := range sides {
		t, err := cpuTime(deps[s].pids)
		if err != nil {
			return sides, err
		}
		sides[s].cpu = t - cpu0[s]
	}
	return sides, ctx.Err()
}

// latencies returns the latencies of one stream's outcomes, seconds.
func latencies(out []outcome, stream uint8) []float64 {
	var xs []float64
	for i := range out {
		if out[i].stream == stream {
			xs = append(xs, out[i].latency())
		}
	}
	return xs
}

// rawNames are the measurements each side yields; the time metrics are
// their ratios, workload over null server.
var rawNames = []string{"capacity_rps", "p50_ms", "p90_ms", "bg_p50_ms", "cpu_ms_per_kop"}

// derive computes every time metric as the workload's value over the null
// server's, and counts the workload's failures. Every null request must
// succeed: its answers are the yardstick.
func (res *result) derive() error {
	for s := range res.sides {
		sd := &res.sides[s]
		prim, bg := latencies(sd.out, primaryStream), latencies(sd.out, backgroundStream)
		res.raw[s] = map[string]float64{
			"capacity_rps":   median(sd.rates),
			"p50_ms":         quantile(prim, 0.5) * 1e3,
			"p90_ms":         quantile(prim, 0.9) * 1e3,
			"bg_p50_ms":      quantile(bg, 0.5) * 1e3,
			"cpu_ms_per_kop": float64(sd.cpu) / float64(time.Millisecond) / (float64(sd.ok) / 1000),
		}
		failed := 0
		for i := range sd.out {
			if !sd.out[i].ok() {
				failed++
			}
		}
		if s == 1 && failed > 0 {
			return fmt.Errorf("the null server failed %d requests", failed)
		}
		if s == 0 {
			res.attempted, res.failed = len(sd.out), failed
		}
	}
	// The primary stream's metrics pair each workload slice with the null
	// slice that follows it; the median ratio also discounts a stall that
	// hit one slice. The background stream has too few requests per slice
	// and is compared over all slices.
	w, n := &res.sides[0], &res.sides[1]
	res.metrics["capacity_vs_null"] = pairedRatio(w.rates, n.rates)
	res.metrics["p50_vs_null"] = pairedRatio(w.p50s, n.p50s)
	res.metrics["p90_vs_null"] = pairedRatio(w.p90s, n.p90s)
	res.metrics["bg_p50_vs_null"] = res.raw[0]["bg_p50_ms"] / res.raw[1]["bg_p50_ms"]
	res.metrics["cpu_vs_null"] = res.raw[0]["cpu_ms_per_kop"] / res.raw[1]["cpu_ms_per_kop"]
	return nil
}

// pairedRatio is the median over slice pairs of the workload's value over
// the null server's.
func pairedRatio(w, n []float64) float64 {
	var rs []float64
	for i := 0; i < min(len(w), len(n)); i++ {
		rs = append(rs, w[i]/n[i])
	}
	return median(rs)
}

// report prints the human-readable record of one run.
func (res *result) report(out io.Writer, env *environment) {
	fmt.Fprintf(out, "workload %s  seed %d  nproc %d  gomaxprocs bench=%d servers=%d  %s  commit %s\n",
		res.workload, res.seed, env.NProc, env.BenchGOMAXPROCS, env.ServerGOMAXPROCS, env.GoVersion, env.Commit)
	fmt.Fprintf(out, "  setup: %d set-ups, seconds %s\n", len(res.setups), fmtList(res.setups, "%.3f"))
	for s, name := range []string{"workload", "null"} {
		sd := &res.sides[s]
		var lag []float64
		for _, o := range sd.out {
			if o.stream == backgroundStream {
				lag = append(lag, (o.sent - o.due).Seconds())
			}
		}
		prim, bg := latencies(sd.out, primaryStream), latencies(sd.out, backgroundStream)
		fmt.Fprintf(out, "  %-8s %d slices, %d primary and %d background requests, server cpu %s, dispatcher lag p99 %.3fms\n",
			name, len(sd.rates), len(prim), len(bg), sd.cpu, quantile(lag, 0.99)*1e3)
		fmt.Fprintf(out, "  %-8s primary p99 %.3fms p99.9 %.3fms, background p90 %.3fms p99 %.3fms\n",
			"", quantile(prim, 0.99)*1e3, quantile(prim, 0.999)*1e3, quantile(bg, 0.9)*1e3, quantile(bg, 0.99)*1e3)
	}
	fmt.Fprintf(out, "  %-16s %14s %14s\n", "raw", "workload", "null")
	for _, k := range rawNames {
		fmt.Fprintf(out, "  %-16s %14.4f %14.4f\n", k, res.raw[0][k], res.raw[1][k])
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-16s %14.6f %s\n", m.name, res.metrics[m.name], m.unit)
	}
}

func fmtList(xs []float64, f string) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf(f, x)
	}
	return s
}
