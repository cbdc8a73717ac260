// Package cosmodel predicts response-latency percentiles for cloud object
// storage systems. It is a from-scratch Go reproduction of
//
//	Yi Su, Dan Feng, Yu Hua, Zhan Shi.
//	"Predicting Response Latency Percentiles for Cloud Object Storage
//	Systems". ICPP 2017. DOI 10.1109/ICPP.2017.33.
//
// The package exposes three layers:
//
//   - The analytic model (the paper's contribution): build a SystemModel
//     from benchmarked DeviceProperties and measured OnlineMetrics, then
//     ask for the percentile of requests meeting an SLA. The model packs
//     request parsing, index lookup, metadata read and chunked data reads
//     into a single M/G/1 "union operation", models the waiting time for
//     being accept()-ed at backend servers, and reduces multi-process
//     devices to the single-process case through an M/M/1/K disk queue.
//
//   - A discrete-event simulator of an OpenStack-Swift-like event-driven
//     object store (Cluster), standing in for the paper's 7-node testbed:
//     it is both a validation target for the model and a workbench for
//     what-if analysis.
//
//   - The experiment drivers that regenerate the paper's evaluation
//     (Fig. 5, Figs. 6-7, Tables I-II) plus ablations of the paper's
//     modeling choices.
//
// # Quick start
//
//	props := cosmodel.DeviceProperties{
//		IndexDisk: cosmodel.NewGammaMeanSCV(9e-3, 0.45),
//		MetaDisk:  cosmodel.NewGammaMeanSCV(6e-3, 0.50),
//		DataDisk:  cosmodel.NewGammaMeanSCV(8e-3, 0.40),
//		ParseFE:   cosmodel.Degenerate{Value: 0.3e-3},
//		ParseBE:   cosmodel.Degenerate{Value: 0.5e-3},
//	}
//	dev, _ := cosmodel.NewDeviceModel(props, cosmodel.OnlineMetrics{
//		Rate: 80, DataRate: 96,
//		MissIndex: 0.4, MissMeta: 0.35, MissData: 0.5,
//		Procs: 1,
//	}, cosmodel.Options{})
//	fe, _ := cosmodel.NewFrontendModel(320, 12, props.ParseFE)
//	sys, _ := cosmodel.NewSystemModel(fe, []*cosmodel.DeviceModel{dev}, cosmodel.Options{})
//	fmt.Printf("P(latency <= 100ms) = %.3f\n", sys.CDF(0.100))
//
// Every prediction is a Query: a plain read (the zero Query), an (n,k)
// coded read, or a w-of-n quorum write. Eval answers several over one SLA
// grid; Quantile inverts one:
//
//	ctx := context.Background()
//	coded := cosmodel.Query{Spec: cosmodel.CodedSpec{N: 6, K: 4}}
//	grid, _ := sys.Eval(ctx, []float64{0.05, 0.1}, cosmodel.Query{}, coded)
//	p99, _ := sys.Quantile(ctx, coded, 0.99, 0)
//
// See examples/ for runnable programs and cmd/cosbench for the full
// evaluation harness.
package cosmodel
