// Bottleneck identification: the paper's second what-if application. A
// cluster of many devices misses its SLA; instead of instrumenting every
// disk, feed each device's cheap online metrics (rates, miss ratios) into
// the model and rank devices by their predicted contribution to SLA
// violations. Here one device has a degraded disk (slower service times)
// and another a cold cache — the model pinpoints both, in order.
package main

import (
	"fmt"
	"log"
	"os"

	"cosmodel"
)

const sla = 0.050

func main() {
	props := cosmodel.DeviceProperties{
		IndexDisk: cosmodel.NewGammaMeanSCV(9e-3, 0.45),
		MetaDisk:  cosmodel.NewGammaMeanSCV(6e-3, 0.50),
		DataDisk:  cosmodel.NewGammaMeanSCV(8e-3, 0.40),
		ParseFE:   cosmodel.Degenerate{Value: 0.3e-3},
		ParseBE:   cosmodel.Degenerate{Value: 0.5e-3},
	}
	// Eight devices; device 2 has a degraded disk (its online-measured
	// mean service time doubled — remapping, vibration, whatever), and
	// device 5 restarted recently (cold cache).
	type devState struct {
		name           string
		rate, dataRate float64
		mi, mm, md     float64
		diskMean       float64
	}
	states := make([]devState, 8)
	for i := range states {
		states[i] = devState{
			name: fmt.Sprintf("disk-%d", i),
			rate: 30, dataRate: 36,
			mi: 0.30, mm: 0.25, md: 0.40,
		}
	}
	states[2].name = "disk-2 (degraded media)"
	states[2].diskMean = 16e-3 // online b doubled
	states[5].name = "disk-5 (cold cache)"
	states[5].mi, states[5].mm, states[5].md = 0.85, 0.85, 0.9

	var devices []*cosmodel.DeviceModel
	total := 0.0
	for _, st := range states {
		m := cosmodel.OnlineMetrics{
			Rate: st.rate, DataRate: st.dataRate,
			MissIndex: st.mi, MissMeta: st.mm, MissData: st.md,
			Procs: 1, DiskMean: st.diskMean,
		}
		d, err := cosmodel.NewDeviceModel(props, m, cosmodel.Options{})
		if err != nil {
			log.Fatal(err)
		}
		devices = append(devices, d)
		total += st.rate
	}
	fe, err := cosmodel.NewFrontendModel(total, 12, props.ParseFE)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := cosmodel.NewSystemModel(fe, devices, cosmodel.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("system-wide: P(latency <= %.0fms) = %.4f\n\n", sla*1e3, sys.CDF(sla))
	diag := sys.Diagnose(sla)
	if err := cosmodel.RenderDiagnosis(os.Stdout, diag, sla); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	for i, d := range diag {
		fmt.Printf("#%d: %s (%.0f%% of predicted misses)\n", i+1, states[d.Device].name, d.SLAContribution*100)
		if i == 1 {
			break
		}
	}
}
