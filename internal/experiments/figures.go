package experiments

import (
	"fmt"
	"io"
	"math"

	"cosmodel/internal/benchkit"
	"cosmodel/internal/stats"
)

// SLASeries extracts, for SLA index i, the per-step series — one subfigure
// of Fig. 6/Fig. 7. Columns: rate, the observed fraction with its 95%
// Wilson interval, the three frontend-tier model predictions, our model's
// signed error, and the backend-tier observed/predicted pair.
func (r *ScenarioResult) SLASeries(i int) (*benchkit.Series, error) {
	if i < 0 || i >= len(r.SLAs) {
		return nil, fmt.Errorf("experiments: SLA index %d out of range", i)
	}
	s := benchkit.NewSeries("rate", "observed", "obs_ci_lo", "obs_ci_hi",
		"our_model", "odopr_model", "nowta_model", "err_our",
		"observed_be", "our_model_be")
	for _, st := range r.Steps {
		if st.Skipped {
			continue
		}
		k := uint64(st.Observed[i]*float64(st.Responses) + 0.5)
		lo, hi := stats.WilsonInterval(k, st.Responses, 0.95)
		if err := s.AddRow(st.Rate, st.Observed[i], lo, hi,
			st.Our[i], st.ODOPR[i], st.NoWTA[i],
			st.Our[i]-st.Observed[i],
			st.ObservedBE[i], st.OurBE[i]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Errors collects |prediction - observed| for one SLA and one model
// ("our", "odopr", "nowta") over the analyzed (non-skipped) steps.
func (r *ScenarioResult) Errors(i int, model string) []float64 {
	var out []float64
	for _, st := range r.Steps {
		if st.Skipped {
			continue
		}
		var pred float64
		switch model {
		case "our":
			pred = st.Our[i]
		case "odopr":
			pred = st.ODOPR[i]
		case "nowta":
			pred = st.NoWTA[i]
		default:
			return nil
		}
		if math.IsNaN(pred) {
			continue
		}
		out = append(out, math.Abs(pred-st.Observed[i]))
	}
	return out
}

// ErrorSummary summarizes one SLA × model cell (Table I / Table II entry).
func (r *ScenarioResult) ErrorSummary(i int, model string) benchkit.ErrorSummary {
	errs := r.Errors(i, model)
	zeros := make([]float64, len(errs))
	return benchkit.SummarizeAbsErrors(errs, zeros)
}

// AnalyzedSteps returns the number of non-skipped steps.
func (r *ScenarioResult) AnalyzedSteps() int {
	n := 0
	for _, st := range r.Steps {
		if !st.Skipped {
			n++
		}
	}
	return n
}

// Render writes the full per-SLA prediction curves plus a short error recap.
func (r *ScenarioResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Scenario %s (%d processes per device), %d analyzed steps of %d\n",
		r.Config.Name, r.Config.Sim.ProcsPerDisk, r.AnalyzedSteps(), len(r.Steps))
	for i, sla := range r.SLAs {
		fmt.Fprintf(w, "\nSLA %.0fms: percentile of requests meeting the SLA vs arrival rate\n", sla*1e3)
		s, err := r.SLASeries(i)
		if err != nil {
			return err
		}
		if s.Len() > 1 {
			plot := benchkit.NewSeries("rate", "observed", "our", "odopr", "nowta")
			for row := 0; row < s.Len(); row++ {
				if err := plot.AddRow(s.Columns[0][row], s.Columns[1][row],
					s.Columns[4][row], s.Columns[5][row], s.Columns[6][row]); err != nil {
					return err
				}
			}
			if err := (benchkit.AsciiPlot{Width: 69, Height: 14, YMin: 0, YMax: 1}).Render(w, plot); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		if err := s.WriteCSV(w); err != nil {
			return err
		}
		sum := r.ErrorSummary(i, "our")
		fmt.Fprintf(w, "our model abs error: mean %.2f%%, best %.2f%%, worst %.2f%%\n",
			sum.Mean*100, sum.Best*100, sum.Worst*100)
	}
	return nil
}

// RenderTable1 reproduces Table I: best/worst/mean absolute prediction
// error of the full model per scenario × SLA.
func RenderTable1(w io.Writer, results []*ScenarioResult) error {
	fmt.Fprintln(w, "Table I: summary of prediction errors for our model")
	tab := benchkit.NewTable("Scenario", "SLA", "Best Case", "Worst Case", "Mean")
	for _, r := range results {
		for i, sla := range r.SLAs {
			s := r.ErrorSummary(i, "our")
			tab.AddRow(r.Config.Name, fmt.Sprintf("%.0fms", sla*1e3),
				pct(s.Best), pct(s.Worst), pct(s.Mean))
		}
	}
	return tab.Render(w)
}

// RenderTable2 reproduces Table II: mean absolute prediction errors of the
// three models per scenario × SLA.
func RenderTable2(w io.Writer, results []*ScenarioResult) error {
	fmt.Fprintln(w, "Table II: mean prediction errors of different models")
	tab := benchkit.NewTable("Scenario", "SLA", "Our Model", "ODOPR Model", "noWTA Model")
	for _, r := range results {
		for i, sla := range r.SLAs {
			tab.AddRow(r.Config.Name, fmt.Sprintf("%.0fms", sla*1e3),
				pct(r.ErrorSummary(i, "our").Mean),
				pct(r.ErrorSummary(i, "odopr").Mean),
				pct(r.ErrorSummary(i, "nowta").Mean))
		}
	}
	return tab.Render(w)
}

func pct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", v*100)
}
