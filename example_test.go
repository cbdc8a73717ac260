package cosmodel_test

import (
	"fmt"

	"cosmodel"
)

// ExampleSystemModel demonstrates the analytic model on its own: fitted
// device properties and online metrics in, percentile predictions out.
func ExampleSystemModel() {
	props := cosmodel.DeviceProperties{
		IndexDisk: cosmodel.NewGammaMeanSCV(9e-3, 0.45),
		MetaDisk:  cosmodel.NewGammaMeanSCV(6e-3, 0.50),
		DataDisk:  cosmodel.NewGammaMeanSCV(8e-3, 0.40),
		ParseFE:   cosmodel.Degenerate{Value: 0.3e-3},
		ParseBE:   cosmodel.Degenerate{Value: 0.5e-3},
	}
	metrics := cosmodel.OnlineMetrics{
		Rate:      60,  // requests/s at this device
		DataRate:  72,  // chunk reads/s (≈0.2 extra reads per request)
		MissIndex: 0.4, // cache miss ratios
		MissMeta:  0.35,
		MissData:  0.5,
		Procs:     1, // Nbe
	}
	dev, err := cosmodel.NewDeviceModel(props, metrics, cosmodel.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fe, err := cosmodel.NewFrontendModel(240, 12, props.ParseFE)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sys, err := cosmodel.NewSystemModel(fe, []*cosmodel.DeviceModel{dev}, cosmodel.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("P(latency <= 100ms) = %.2f\n", sys.CDF(0.100))
	fmt.Printf("utilization = %.2f\n", dev.Utilization())
	// Output:
	// P(latency <= 100ms) = 0.91
	// utilization = 0.66
}

// ExampleMissRatioByThreshold shows the paper's latency-threshold method
// for estimating cache miss ratios from measured operation latencies.
func ExampleMissRatioByThreshold() {
	latencies := []float64{
		2e-6, 1e-6, 3e-6, // memory hits: microseconds
		7e-3, 12e-3, // disk misses: milliseconds
	}
	miss := cosmodel.MissRatioByThreshold(latencies, cosmodel.DefaultMissThreshold)
	fmt.Printf("miss ratio = %.2f\n", miss)
	// Output:
	// miss ratio = 0.40
}

// ExampleWilsonInterval shows the confidence interval attached to observed
// SLA-meeting fractions.
func ExampleWilsonInterval() {
	lo, hi := cosmodel.WilsonInterval(950, 1000, 0.95)
	fmt.Printf("[%.3f, %.3f]\n", lo, hi)
	// Output:
	// [0.935, 0.962]
}
