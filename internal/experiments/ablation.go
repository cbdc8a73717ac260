package experiments

import (
	"context"
	"fmt"
	"io"

	"cosmodel/internal/benchkit"
	"cosmodel/internal/core"
	"cosmodel/internal/numeric"
	"cosmodel/internal/parallel"
)

// Variant is one model configuration under ablation.
type Variant struct {
	Name string
	Opts core.Options
}

// AblationResult compares model variants over a shared sweep.
type AblationResult struct {
	Name     string
	SLAs     []float64
	Variants []Variant
	// MeanErr[v][i] is variant v's mean absolute error at SLA i.
	MeanErr [][]float64
	Steps   int
}

// RunAblation evaluates every variant on every window of a sweep and
// summarizes mean absolute errors per SLA. It excludes the windows the
// scenario sweep skips, and any window where a variant's model fails.
func RunAblation(name string, sc ScenarioConfig, variants []Variant) (*AblationResult, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("experiments: ablation needs at least one variant")
	}
	data, err := RunSweep(sc)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{
		Name:     name,
		SLAs:     append([]float64(nil), sc.Sim.SLAs...),
		Variants: variants,
		MeanErr:  make([][]float64, len(variants)),
	}
	errsByVariant := make([][][]float64, len(variants)) // [v][sla][]errors
	for v := range variants {
		errsByVariant[v] = make([][]float64, len(res.SLAs))
	}
	// Windows evaluate independently across the pool; predictions land in
	// per-window slots and are folded below in window order, so the summary
	// matches a sequential run exactly.
	preds := make([][][]float64, len(data.Windows)) // [window][v][sla]; nil = unusable
	parallel.Default().ForEach(len(data.Windows), func(w int) {
		win := data.Windows[w]
		if skipReason(win) != "" {
			return
		}
		p := make([][]float64, len(variants))
		for v, variant := range variants {
			grids, err := predict(context.Background(), sc.Sim, data.Props, win, variant.Opts)
			if err != nil {
				return
			}
			p[v] = grids[0]
		}
		preds[w] = p
	})
	for w, p := range preds {
		if p == nil {
			continue
		}
		res.Steps++
		for v := range variants {
			for i := range res.SLAs {
				e := p[v][i] - data.Windows[w].MeetFraction[i]
				if e < 0 {
					e = -e
				}
				errsByVariant[v][i] = append(errsByVariant[v][i], e)
			}
		}
	}
	for v := range variants {
		res.MeanErr[v] = make([]float64, len(res.SLAs))
		for i := range res.SLAs {
			res.MeanErr[v][i] = mean(errsByVariant[v][i])
		}
	}
	return res, nil
}

// Render writes the ablation comparison.
func (r *AblationResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Ablation: %s (%d analyzed steps)\n", r.Name, r.Steps)
	header := []string{"SLA"}
	for _, v := range r.Variants {
		header = append(header, v.Name)
	}
	tab := benchkit.NewTable(header...)
	for i, sla := range r.SLAs {
		row := []interface{}{fmt.Sprintf("%.0fms", sla*1e3)}
		for v := range r.Variants {
			row = append(row, pct(r.MeanErr[v][i]))
		}
		tab.AddRow(row...)
	}
	return tab.Render(w)
}

// WTAVariants is the accept-waiting ablation: the paper's approximation,
// the exact integral, and no WTA at all.
func WTAVariants() []Variant {
	return []Variant{
		{"wa=wbe (paper)", core.Options{WTA: core.WTAApprox}},
		{"wa exact", core.Options{WTA: core.WTAExact}},
		{"no wa", core.Options{WTA: core.WTANone}},
	}
}

// DiskQueueVariants is the multi-process disk-queue ablation: M/M/1/K
// (paper) vs unbounded M/G/1.
func DiskQueueVariants() []Variant {
	return []Variant{
		{"mm1k (paper)", core.Options{DiskQueue: core.DiskMM1K}},
		{"mg1 unbounded", core.Options{DiskQueue: core.DiskMG1}},
	}
}

// CompoundVariants is the extra-data-read count ablation.
func CompoundVariants() []Variant {
	return []Variant{
		{"poisson (paper)", core.Options{Compound: core.CompoundPoisson}},
		{"fixed mean", core.Options{Compound: core.CompoundFixed}},
		{"geometric", core.Options{Compound: core.CompoundGeometric}},
	}
}

// InverterVariants is the Laplace-inversion ablation.
func InverterVariants() []Variant {
	return []Variant{
		{"euler (default)", core.Options{Inverter: numeric.NewEuler()}},
		{"talbot", core.Options{Inverter: numeric.NewTalbot()}},
		{"gaver-stehfest", core.Options{Inverter: numeric.NewGaverStehfest()}},
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}
