// Quickstart: calibrate device properties, build the analytic model, and
// compare its predicted percentile-meeting-SLA values against a short run
// of the cluster simulator — the whole paper in one page.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"cosmodel"
)

func main() {
	// 1. Benchmark the "hardware" (Section IV-A of the paper): disk
	// service times with one outstanding operation, parse latencies with
	// a cached closed loop, then fit distributions.
	simCfg := cosmodel.DefaultSimConfig()
	props, err := cosmodel.CalibrateDevice(simCfg, 3000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("calibrated device properties:")
	fmt.Printf("  index lookup: %v (mean %.2f ms)\n", props.IndexDisk, props.IndexDisk.Mean()*1e3)
	fmt.Printf("  metadata read: %v (mean %.2f ms)\n", props.MetaDisk, props.MetaDisk.Mean()*1e3)
	fmt.Printf("  data read:     %v (mean %.2f ms)\n", props.DataDisk, props.DataDisk.Mean()*1e3)
	fmt.Printf("  parse FE/BE:   %.2f / %.2f ms\n\n", props.ParseFE.Mean()*1e3, props.ParseBE.Mean()*1e3)

	// 2. Run a workload through the simulated cluster and collect the
	// online metrics (Section IV-B): rates, miss ratios, disk means.
	cluster, err := cosmodel.NewCluster(simCfg)
	if err != nil {
		log.Fatal(err)
	}
	catalog, err := cosmodel.NewCatalog(150000, cosmodel.WikipediaLikeSizes(), 1.05, 1, 7)
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.PrewarmCaches(catalog, 0.95); err != nil {
		log.Fatal(err)
	}
	const rate = 240.0
	records, err := cosmodel.GenerateTrace(catalog, cosmodel.Schedule{
		{Rate: rate, Duration: 40, Label: "run"},
	}, 11)
	if err != nil {
		log.Fatal(err)
	}
	cluster.Inject(records)
	cluster.RunUntil(10) // warm
	before := cluster.Snapshot()
	cluster.Drain()
	window := cluster.Window(before, cluster.Snapshot())

	// 3. Build the analytic model from the measured window and predict.
	sys, err := cosmodel.BuildSystemModel(simCfg, props, window, cosmodel.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %.0f req/s over %d devices\n\n", rate, simCfg.Devices())
	fmt.Println("SLA        observed   predicted")
	for i, sla := range simCfg.SLAs {
		fmt.Printf("%-9v  %.4f     %.4f\n",
			time.Duration(sla*float64(time.Second)), window.MeetFraction[i], sys.CDF(sla))
	}
	p95, err := sys.Quantile(context.Background(), cosmodel.Query{}, 0.95, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npredicted p95 latency: %.1f ms\n", p95*1e3)
	fmt.Printf("predicted mean latency: %.1f ms (observed %.1f ms)\n",
		sys.MeanResponse()*1e3, window.MeanLatency*1e3)
}
