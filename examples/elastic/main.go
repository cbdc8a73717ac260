// Elastic storage: the paper's third what-if application. At night the
// arrival rate drops; powering storage nodes down saves energy, but the
// surviving devices absorb the traffic (and, with less aggregate cache,
// higher miss ratios). This example uses the analytic model to pick, for
// each hour of a synthetic diurnal load curve, the smallest device count
// that still meets the SLA.
package main

import (
	"errors"
	"fmt"
	"log"
	"math"

	"cosmodel"
)

const (
	slaLatency = 0.100
	slaTarget  = 0.95
	maxDevices = 12
	chunkFrac  = 0.2
)

func main() {
	props := cosmodel.DeviceProperties{
		IndexDisk: cosmodel.NewGammaMeanSCV(9e-3, 0.45),
		MetaDisk:  cosmodel.NewGammaMeanSCV(6e-3, 0.50),
		DataDisk:  cosmodel.NewGammaMeanSCV(8e-3, 0.40),
		ParseFE:   cosmodel.Degenerate{Value: 0.3e-3},
		ParseBE:   cosmodel.Degenerate{Value: 0.5e-3},
	}
	fmt.Printf("SLA: %.0f%% within %.0f ms; fleet of %d devices\n\n", slaTarget*100, slaLatency*1e3, maxDevices)
	fmt.Println("hour  load(req/s)  devices powered  P(<=SLA)  saved")
	totalSaved := 0
	for hour := 0; hour < 24; hour++ {
		// Diurnal curve: trough at 04:00, peak at 16:00.
		load := 700 + 500*math.Sin(2*math.Pi*float64(hour-10)/24)
		devices, p := minimalFleet(props, load)
		saved := maxDevices - devices
		totalSaved += saved
		fmt.Printf("%4d  %11.0f  %15d  %.4f    %d\n", hour, load, devices, p, saved)
	}
	fmt.Printf("\ndevice-hours saved per day: %d of %d (%.0f%%)\n",
		totalSaved, 24*maxDevices, 100*float64(totalSaved)/(24*maxDevices))
}

// minimalFleet finds the fewest powered devices meeting the SLA at the
// given load. Powering down devices concentrates traffic and shrinks the
// aggregate cache, which we model as miss ratios rising with concentration.
func minimalFleet(props cosmodel.DeviceProperties, rate float64) (int, float64) {
	for devices := 1; devices <= maxDevices; devices++ {
		// Fewer devices -> less aggregate cache for the same working
		// set -> higher miss ratios. A simple saturating model: full
		// fleet has the baseline ratios; each removed device adds load
		// and misses.
		conc := float64(maxDevices) / float64(devices)
		mi := clamp(0.35 * math.Sqrt(conc))
		mm := clamp(0.30 * math.Sqrt(conc))
		md := clamp(0.45 * math.Sqrt(conc))
		perDev := cosmodel.OnlineMetrics{
			Rate:      rate / float64(devices),
			DataRate:  rate * (1 + chunkFrac) / float64(devices),
			MissIndex: mi,
			MissMeta:  mm,
			MissData:  md,
			Procs:     4,
		}
		devs := make([]*cosmodel.DeviceModel, devices)
		usable := true
		for i := range devs {
			d, err := cosmodel.NewDeviceModel(props, perDev, cosmodel.Options{})
			if errors.Is(err, cosmodel.ErrOverload) {
				usable = false
				break
			}
			if err != nil {
				log.Fatal(err)
			}
			devs[i] = d
		}
		if !usable {
			continue
		}
		fe, err := cosmodel.NewFrontendModel(rate, 12, props.ParseFE)
		if err != nil {
			continue
		}
		sys, err := cosmodel.NewSystemModel(fe, devs, cosmodel.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if p := sys.CDF(slaLatency); p >= slaTarget {
			return devices, p
		}
	}
	// Fall back to the full fleet even if the SLA is missed.
	perDev := cosmodel.OnlineMetrics{
		Rate:      rate / maxDevices,
		DataRate:  rate * (1 + chunkFrac) / maxDevices,
		MissIndex: 0.35, MissMeta: 0.30, MissData: 0.45,
		Procs: 4,
	}
	d, err := cosmodel.NewDeviceModel(props, perDev, cosmodel.Options{})
	if err != nil {
		return maxDevices, 0
	}
	fe, _ := cosmodel.NewFrontendModel(rate, 12, props.ParseFE)
	devs := make([]*cosmodel.DeviceModel, maxDevices)
	for i := range devs {
		devs[i] = d
	}
	sys, err := cosmodel.NewSystemModel(fe, devs, cosmodel.Options{})
	if err != nil {
		return maxDevices, 0
	}
	return maxDevices, sys.CDF(slaLatency)
}

func clamp(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}
