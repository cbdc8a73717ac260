// Command bench is the capacity benchmark of cosserve and cosrouter. It
// launches the real server binaries and a null server, drives both from one
// process over nproc keep-alive connections in alternating slices, and
// reports each workload's end-to-end metrics as ratios to the null server;
// with -trace 1 it instead runs the same configurations in-process and
// reports per-layer metrics. See README.md for the workloads, the metrics
// and how to run it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// environment is recorded with every result.
type environment struct {
	NProc            int    `json:"nproc"`
	BenchGOMAXPROCS  int    `json:"gomaxprocs_bench"`
	ServerGOMAXPROCS int    `json:"gomaxprocs_servers"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
}

func currentEnv() *environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &environment{
		NProc:            nproc(),
		BenchGOMAXPROCS:  runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS: nproc(),
		GoVersion:        runtime.Version(),
		Commit:           commit,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of output: the contract every caller parses.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "all", "workload to run, or all")
		seed      = fs.Int64("seed", 1, "input seed; -runs N uses seed .. seed+N-1")
		seconds   = fs.Float64("seconds", 25, "measured seconds per run, workload and null server slices together")
		trace     = fs.Int("trace", 0, "1: traced in-process run reporting per-layer metrics")
		runs      = fs.Int("runs", 1, "runs per workload; >1 prints medians and quartiles")
		jsonOut   = fs.Bool("json", false, "also print one JSON object per run with the environment record")
		binDir    = fs.String("bin", ".bench_build/bin", "directory holding the cosserve, cosrouter and bench binaries")
		goldenDir = fs.String("golden", "bench/golden", "directory of the golden gate answers")
		spec      = fs.String("spec", "BENCHMARK.json", "benchmark description holding the metric bounds")
		spans     = fs.String("spans", ".bench_build", "directory the traced run writes its span file to")
		writeGold = fs.Bool("write-golden", false, "record the gate answers of the current code as golden")
		build     = fs.Float64("build-seconds", 0, "build time to print (the wrapper script measures it)")
		nullAddr  = fs.String("null-server", "", "serve the null server on this address instead (the benchmark launches it)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *nullAddr != "" {
		if err := serveNull(*nullAddr); err != nil {
			fmt.Fprintln(os.Stderr, "bench: null server:", err)
			return 1
		}
		return 0
	}
	var list []*workload
	if *name == "all" {
		list = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		list = []*workload{w}
	}
	if *runs < 1 || !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -runs >= 1, -seconds > 0, -trace 0 or 1")
		return 2
	}
	// The generator allocates per request; fewer collections mean fewer
	// pauses of its own that would read as server latency.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env := currentEnv()
	if *build > 0 {
		fmt.Fprintf(stdout, "build: %.1fs (not part of setup_s)\n", *build)
	}

	if *writeGold {
		for _, w := range list {
			if err := recordGolden(w, *binDir, *goldenDir); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", goldenPath(*goldenDir, w.name))
		}
		return 0
	}

	// One keep-alive connection per core: a generator never holds more
	// requests in flight than the box has processors.
	cfg := runConfig{
		seconds: *seconds, conns: nproc(), goldenDir: *goldenDir, setups: 9, warmup: 2 * time.Second,
		start:     func(w *workload) (*deployment, error) { return startProcesses(w, *binDir, nproc()) },
		startNull: func() (*deployment, error) { return startNullProcess(*binDir, nproc()) },
	}
	rows := endToEnd
	if *trace == 1 {
		rows = perLayer
	}
	var bounds map[string]float64
	if *runs > 1 {
		var err error
		if bounds, err = loadBounds(*spec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	for _, w := range list {
		var all []map[string]float64
		for i := 0; i < *runs; i++ {
			cfg.seed = *seed + int64(i)
			var (
				sum summary
				err error
			)
			if *trace == 1 {
				sum, err = traceWorkload(ctx, w, cfg, *spans, stdout)
			} else {
				var res *result
				res, err = runWorkload(ctx, w, cfg)
				if err == nil {
					res.report(stdout, env)
					sum = res.summary()
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				if errors.Is(err, errGolden) {
					return 3
				}
				return 1
			}
			values := map[string]float64{}
			for _, m := range rows {
				values[m.name] = sum.Metrics[m.name].Value
			}
			all = append(all, values)
			if *jsonOut {
				printRecord(stdout, w.name, cfg.seed, env, sum)
			}
			printSummary(stdout, sum)
		}
		if *runs > 1 {
			repeatability(stdout, w.name, rows, all, bounds)
		}
	}
	return 0
}

func (res *result) summary() summary {
	s := summary{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		s.Metrics[m.name] = metricValue{Value: res.metrics[m.name], Unit: m.unit}
	}
	return s
}

func printSummary(out io.Writer, s summary) {
	b, err := json.Marshal(s)
	if err != nil {
		panic("bench: a summary of plain numbers always marshals: " + err.Error())
	}
	fmt.Fprintln(out, string(b))
}

// printRecord emits the -json record: every metric by name plus the
// environment and the operation counts.
func printRecord(out io.Writer, workload string, seed int64, env *environment, s summary) {
	rec := map[string]any{
		"workload": workload, "seed": seed, "nproc": env.NProc,
		"gomaxprocs_bench": env.BenchGOMAXPROCS, "gomaxprocs_servers": env.ServerGOMAXPROCS,
		"go_version": env.GoVersion, "commit": env.Commit,
		"attempted": s.Attempted, "failed": s.Failed, "correct": s.Correct,
	}
	for k, v := range s.Metrics {
		rec[k] = v.Value
	}
	b, err := json.Marshal(rec)
	if err != nil {
		panic("bench: a record of plain values always marshals: " + err.Error())
	}
	fmt.Fprintln(out, string(b))
}

// loadBounds reads each end-to-end metric's regression bound from the
// benchmark description (per-layer metrics carry none).
func loadBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// repeatability prints each metric's median and quartiles over the runs and
// flags a quartile spread wider than the metric's bound.
func repeatability(out io.Writer, workload string, rows []metricDef, runs []map[string]float64, bounds map[string]float64) {
	fmt.Fprintf(out, "repeatability %s over %d runs:\n", workload, len(runs))
	fmt.Fprintf(out, "  %-28s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range rows {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r[m.name])
		}
		q1, q2, q3 := quartiles(xs)
		spread := (q3 - q1) / q2
		flag := ""
		bound, ok := bounds[m.name]
		if ok && spread > bound {
			flag = "  SPREAD ABOVE BOUND"
		}
		bs := "-"
		if ok {
			bs = fmt.Sprintf("%.3f", bound)
		}
		fmt.Fprintf(out, "  %-28s %14.6f %14.6f %14.6f %8.4f %6s%s\n", m.name, q1, q2, q3, spread, bs, flag)
	}
}

// recordGolden answers the gate queries on a freshly warmed deployment and
// writes them as the golden file.
func recordGolden(w *workload, binDir, dir string) error {
	d, err := startProcesses(w, binDir, nproc())
	if err != nil {
		return err
	}
	defer d.stop()
	if err := warmIngest(d.target, w); err != nil {
		return err
	}
	got, err := askGate(d.target, w)
	if err != nil {
		return err
	}
	if w.cluster {
		if err := crossCheckRouter(w, got); err != nil {
			return err
		}
	}
	return writeGolden(dir, &goldenFile{Workload: w.name, Answers: got})
}
