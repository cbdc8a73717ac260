// Command cosmodel is the predictor CLI: given device properties (Gamma
// disk service-time parameters, parse latencies) and online metrics
// (arrival rates, cache miss ratios, process counts), it prints the
// predicted percentile of requests meeting each SLA — the paper's headline
// output — along with diagnostic quantities.
//
// Usage:
//
//	cosmodel -rate 240 -data-rate 288 -devices 4 -nbe 1 \
//	         -miss-index 0.4 -miss-meta 0.35 -miss-data 0.5 \
//	         -slas 10ms,50ms,100ms
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cosmodel"
)

func main() {
	var (
		rate      = flag.Float64("rate", 240, "aggregate request arrival rate (req/s)")
		dataRate  = flag.Float64("data-rate", 0, "aggregate data read operation rate (req/s; default 1.2x rate)")
		devices   = flag.Int("devices", 4, "number of storage devices (load split evenly)")
		nbe       = flag.Int("nbe", 1, "processes per storage device (Nbe)")
		nfe       = flag.Int("nfe", 12, "frontend processes (Nfe)")
		missIndex = flag.Float64("miss-index", 0.40, "index lookup cache miss ratio")
		missMeta  = flag.Float64("miss-meta", 0.35, "metadata read cache miss ratio")
		missData  = flag.Float64("miss-data", 0.50, "data read cache miss ratio")
		diskMean  = flag.Float64("disk-mean", 0, "observed overall disk mean service time in seconds (0: use fitted means)")

		indexMean = flag.Float64("index-mean", 9e-3, "fitted index-lookup disk mean (s)")
		indexSCV  = flag.Float64("index-scv", 0.45, "fitted index-lookup squared coefficient of variation")
		metaMean  = flag.Float64("meta-mean", 6e-3, "fitted metadata-read disk mean (s)")
		metaSCV   = flag.Float64("meta-scv", 0.50, "fitted metadata-read SCV")
		dataMean  = flag.Float64("data-mean", 8e-3, "fitted data-read disk mean (s)")
		dataSCV   = flag.Float64("data-scv", 0.40, "fitted data-read SCV")
		parseFE   = flag.Float64("parse-fe", 0.3e-3, "frontend parse latency (s)")
		parseBE   = flag.Float64("parse-be", 0.5e-3, "backend parse latency (s)")

		slas    = flag.String("slas", "10ms,50ms,100ms", "comma-separated SLA latency bounds")
		variant = flag.String("variant", "our", "model variant: our | odopr | nowta")
	)
	flag.Parse()

	if *dataRate <= 0 {
		*dataRate = 1.2 * *rate
	}
	bounds, err := parseSLAs(*slas)
	if err != nil {
		fatal(err)
	}
	opts := cosmodel.Options{}
	switch *variant {
	case "our":
	case "odopr":
		opts.ODOPR = true
	case "nowta":
		opts.WTA = cosmodel.WTANone
	default:
		fatal(fmt.Errorf("unknown variant %q", *variant))
	}

	props := cosmodel.DeviceProperties{
		IndexDisk: cosmodel.NewGammaMeanSCV(*indexMean, *indexSCV),
		MetaDisk:  cosmodel.NewGammaMeanSCV(*metaMean, *metaSCV),
		DataDisk:  cosmodel.NewGammaMeanSCV(*dataMean, *dataSCV),
		ParseFE:   cosmodel.Degenerate{Value: *parseFE},
		ParseBE:   cosmodel.Degenerate{Value: *parseBE},
	}
	perDevice := cosmodel.OnlineMetrics{
		Rate:      *rate / float64(*devices),
		DataRate:  *dataRate / float64(*devices),
		MissIndex: *missIndex,
		MissMeta:  *missMeta,
		MissData:  *missData,
		Procs:     *nbe,
		DiskMean:  *diskMean,
	}
	devs := make([]*cosmodel.DeviceModel, *devices)
	for i := range devs {
		d, err := cosmodel.NewDeviceModel(props, perDevice, opts)
		if err != nil {
			fatal(err)
		}
		devs[i] = d
	}
	fe, err := cosmodel.NewFrontendModel(*rate, *nfe, props.ParseFE)
	if err != nil {
		fatal(err)
	}
	sys, err := cosmodel.NewSystemModel(fe, devs, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("model variant: %s\n", *variant)
	fmt.Printf("per-device rate: %.2f req/s, extra reads per request: %.3f\n",
		perDevice.Rate, perDevice.ExtraReads())
	fmt.Printf("device utilization (union queue, per process): %.3f\n", devs[0].Utilization())
	fmt.Printf("frontend utilization (per process): %.3f\n", fe.Utilization())
	fmt.Printf("mean response latency: %.3f ms\n", sys.MeanResponse()*1e3)
	fmt.Println()
	for _, sla := range bounds {
		fmt.Printf("P(latency <= %v) = %.4f\n", time.Duration(sla*float64(time.Second)), sys.CDF(sla))
	}
	for _, p := range []float64{0.50, 0.90, 0.95, 0.99} {
		q, err := sys.Quantile(context.Background(), cosmodel.Query{}, p, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("p%.0f latency = %.2f ms\n", p*100, q*1e3)
	}
}

func parseSLAs(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad SLA %q: %w", part, err)
		}
		out = append(out, d.Seconds())
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no SLAs given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cosmodel:", err)
	os.Exit(1)
}
