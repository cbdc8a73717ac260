// Redundancy planning for coded reads: given calibrated device properties
// and a workload forecast, compare the p99 read latency of replication
// (n=3, k=1: race three full copies, keep the fastest) against erasure
// coding (n=6, k=4: stripe into four data plus two parity chunks, done at
// the fourth-fastest), and see how a hedging delay trades tail latency
// against the extra load of reserve reads. Everything comes from the
// analytic k-of-n order-statistic model — no load tests. The storage cost
// of a scheme is n/k (3x for triple replication, 1.5x for the 6-of-4
// code), so the question the table answers is: how much tail latency does
// each multiple of storage actually buy at this operating point?
package main

import (
	"context"
	"fmt"
	"log"

	"cosmodel"
)

const (
	devices       = 6    // storage devices in the cluster
	procs         = 4    // backend processes per device
	frontendProcs = 12   // proxy-tier processes
	parentRate    = 60.0 // object reads per second (before fan-out)
)

// props are the calibrated device properties (Section IV-A), written out
// the way an operator would persist them after the quickstart benchmark.
var props = cosmodel.DeviceProperties{
	IndexDisk: cosmodel.NewGammaMeanSCV(9e-3, 0.45),
	MetaDisk:  cosmodel.NewGammaMeanSCV(6e-3, 0.50),
	DataDisk:  cosmodel.NewGammaMeanSCV(8e-3, 0.40),
	ParseFE:   cosmodel.Degenerate{Value: 0.3e-3},
	ParseBE:   cosmodel.Degenerate{Value: 0.5e-3},
}

func main() {
	fmt.Printf("forecast: %.0f object reads/s over %d devices\n\n", parentRate, devices)
	fmt.Println("scheme            n  k  hedge Δ   storage   p99 read latency")

	schemes := []struct {
		name string
		spec cosmodel.CodedSpec
	}{
		{"single replica", cosmodel.CodedSpec{N: 1, K: 1}},
		{"replication", cosmodel.CodedSpec{N: 3, K: 1}},
		{"erasure 6-of-4", cosmodel.CodedSpec{N: 6, K: 4}},
		{"  + hedge 5ms", cosmodel.CodedSpec{N: 6, K: 4, Hedge: true, HedgeDelay: 5e-3}},
		{"  + hedge 20ms", cosmodel.CodedSpec{N: 6, K: 4, Hedge: true, HedgeDelay: 20e-3}},
	}
	for _, s := range schemes {
		q, err := p99(s.spec, parentRate)
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		delay := "      -"
		if s.spec.Hedge {
			delay = fmt.Sprintf("%4.0f ms", s.spec.HedgeDelay*1e3)
		}
		fmt.Printf("%-16s  %d  %d  %s  %5.1fx  %9.1f ms\n",
			s.name, s.spec.N, s.spec.K, delay,
			float64(s.spec.N)/float64(s.spec.K), q*1e3)
	}

	fmt.Println("\nhedging sweep for the 6-of-4 code (Δ=0 issues all six up front;")
	fmt.Println("a long Δ degrades to the 4-of-4 barrier):")
	fmt.Println("     Δ      sub-reads/object   p99")
	for _, d := range []float64{0, 2e-3, 5e-3, 10e-3, 20e-3, 50e-3} {
		spec := cosmodel.CodedSpec{N: 6, K: 4, Hedge: true, HedgeDelay: d}
		q, err := p99(spec, parentRate)
		if err != nil {
			log.Fatal(err)
		}
		// Worst case: every reserve fires. The simulator cancels reserves
		// once the quorum is met, so the realized fan-out sits between the
		// k primaries and this bound.
		fmt.Printf("%5.0f ms   <= %d               %6.1f ms\n", d*1e3, spec.N, q*1e3)
	}
}

// system builds the analytic model for one coded scheme at the given
// object-read rate: each read fans into n sub-reads (one chunk per
// backend), so the device tier sees n times the parent rate spread over
// the cluster, while the proxy parses each object read once.
func system(spec cosmodel.CodedSpec, rate float64) (*cosmodel.SystemModel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	subRate := rate * float64(spec.N) / float64(devices)
	m := cosmodel.OnlineMetrics{
		Rate:      subRate,
		DataRate:  subRate,
		MissIndex: 0.40,
		MissMeta:  0.35,
		MissData:  0.50,
		Procs:     procs,
	}
	var opts cosmodel.Options
	dev, err := cosmodel.NewDeviceModel(props, m, opts)
	if err != nil {
		return nil, err
	}
	devs := make([]*cosmodel.DeviceModel, devices)
	for i := range devs {
		devs[i] = dev
	}
	fe, err := cosmodel.NewFrontendModel(rate, frontendProcs, props.ParseFE)
	if err != nil {
		return nil, err
	}
	return cosmodel.NewSystemModel(fe, devs, opts)
}

// p99 predicts the 99th-percentile read latency for a scheme.
func p99(spec cosmodel.CodedSpec, rate float64) (float64, error) {
	sys, err := system(spec, rate)
	if err != nil {
		return 0, err
	}
	return sys.Quantile(context.Background(), cosmodel.Query{Spec: spec}, 0.99, 0)
}
