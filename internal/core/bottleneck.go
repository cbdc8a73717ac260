package core

import (
	"context"
	"fmt"
	"io"
	"sort"

	"cosmodel/internal/benchkit"
)

// DeviceDiagnosis summarizes one device's modeled health — the raw material
// of the paper's "bottleneck identification" what-if application, which
// must locate the performance bottleneck among hundreds of devices without
// instrumenting each one.
type DeviceDiagnosis struct {
	// Device is the index within the system model.
	Device int
	// Rate is the device's request arrival rate.
	Rate float64
	// Utilization is the union-operation queue utilization ρ (per
	// process); the device saturates as it approaches 1.
	Utilization float64
	// MeanWTA is the modeled mean waiting time for being accept()-ed.
	MeanWTA float64
	// MeanBackend is the modeled mean backend response time.
	MeanBackend float64
	// SLAContribution is the device's share of predicted SLA misses:
	// rate-weighted (1 - CDF of its frontend-observed response
	// Sq ∗ Wa ∗ Sbe at the SLA), normalized over devices.
	SLAContribution float64
}

// Diagnose ranks the system's devices by their contribution to predicted
// SLA violations at the given latency bound, worst first. Ties in
// contribution break toward higher utilization. Each device's miss comes
// from the evaluation engine's validated per-group CDF, so an invalid
// inversion that no fallback recovers is an error (numeric.ErrNumerical),
// never a silent 100% miss. Options.EvalTimeout bounds the call.
func (s *SystemModel) Diagnose(sla float64) ([]DeviceDiagnosis, error) {
	ctx, cancel := s.opts.EvalContext(context.Background())
	defer cancel()
	perGroup := make([]float64, len(s.groups))
	row := []float64{0}
	if err := s.mixtureCDFBatch(ctx, []evalMode{{shape: shapeFull}}, []float64{sla}, zeroDelay(1), [][]float64{row}, perGroup); err != nil {
		return nil, err
	}
	group := make(map[*DeviceModel]float64, len(s.groups))
	for i, g := range s.groups {
		group[g.dev] = perGroup[i]
	}
	out := make([]DeviceDiagnosis, len(s.devices))
	totalMisses := 0.0
	for j, d := range s.devices {
		miss := d.Rate() * (1 - group[d])
		out[j] = DeviceDiagnosis{
			Device:          j,
			Rate:            d.Rate(),
			Utilization:     d.Utilization(),
			MeanWTA:         d.meanWa,
			MeanBackend:     d.meanSbe,
			SLAContribution: miss,
		}
		totalMisses += miss
	}
	if totalMisses > 0 {
		for j := range out {
			out[j].SLAContribution /= totalMisses
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].SLAContribution != out[b].SLAContribution {
			return out[a].SLAContribution > out[b].SLAContribution
		}
		return out[a].Utilization > out[b].Utilization
	})
	return out, nil
}

// Bottleneck returns the device contributing most to predicted SLA misses
// and that contribution (0..1). With no predicted misses it returns the
// most utilized device and a zero share. It fails as Diagnose does.
func (s *SystemModel) Bottleneck(sla float64) (device int, share float64, err error) {
	diag, err := s.Diagnose(sla)
	if err != nil {
		return 0, 0, err
	}
	return diag[0].Device, diag[0].SLAContribution, nil
}

// RenderDiagnosis writes the ranked device report.
func RenderDiagnosis(w io.Writer, diag []DeviceDiagnosis, sla float64) error {
	fmt.Fprintf(w, "Bottleneck identification at SLA %.0f ms (worst first)\n", sla*1e3)
	tab := benchkit.NewTable("device", "rate", "utilization", "mean WTA ms", "mean backend ms", "miss share")
	for _, d := range diag {
		tab.AddRow(d.Device, d.Rate, d.Utilization, d.MeanWTA*1e3, d.MeanBackend*1e3,
			fmt.Sprintf("%.1f%%", d.SLAContribution*100))
	}
	return tab.Render(w)
}
