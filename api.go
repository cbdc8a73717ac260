package cosmodel

import (
	"net/http"

	"cosmodel/internal/calib"
	"cosmodel/internal/cluster"
	"cosmodel/internal/core"
	"cosmodel/internal/coscode"
	"cosmodel/internal/dist"
	"cosmodel/internal/experiments"
	"cosmodel/internal/load"
	"cosmodel/internal/numeric"
	"cosmodel/internal/serve"
	"cosmodel/internal/simstore"
	"cosmodel/internal/stats"
	"cosmodel/internal/trace"
)

// ---------------------------------------------------------------------------
// Analytic model (the paper's contribution).

// Core model types; see internal/core for full documentation.
type (
	// DeviceProperties are benchmarked per-device performance properties:
	// fitted disk service-time distributions and parse latencies.
	DeviceProperties = core.DeviceProperties
	// OnlineMetrics are the per-device runtime inputs: rates, miss
	// ratios, process count and observed disk mean service time.
	OnlineMetrics = core.OnlineMetrics
	// Options select model variants (WTA mode, disk-queue approximation,
	// compounding, ODOPR baseline, inverter).
	Options = core.Options
	// DeviceModel is the backend-tier model of one storage device.
	DeviceModel = core.DeviceModel
	// FrontendSet is one homogeneous group within a heterogeneous
	// frontend tier.
	FrontendSet = core.FrontendSet
	// SystemModel is the full response-latency model.
	SystemModel = core.SystemModel
	// CodedSpec is the k-of-n order statistic of a Query: an (n,k) coded
	// or hedged read, or a w-of-n quorum write with K = w.
	CodedSpec = coscode.Spec
	// Query is one latency question for SystemModel.Eval and
	// SystemModel.Quantile: request class, observed tier and order
	// statistic. The zero Query is a plain read at the frontend.
	Query = core.Query
)

// WTANone drops the accept-waiting factor — the paper's noWTA baseline.
const WTANone = core.WTANone

// Model errors.
var (
	// ErrOverload marks operating points with no steady state.
	ErrOverload = core.ErrOverload
	// ErrBadParams marks invalid model inputs.
	ErrBadParams = core.ErrBadParams
)

// Model constructors and calibration helpers.
var (
	// NewDeviceModel builds the backend model of one storage device.
	NewDeviceModel = core.NewDeviceModel
	// NewFrontendModel builds the proxy-tier model.
	NewFrontendModel = core.NewFrontendModel
	// NewHeterogeneousFrontend builds a frontend tier of several
	// homogeneous server sets (Section III-C of the paper).
	NewHeterogeneousFrontend = core.NewHeterogeneousFrontend
	// NewSystemModel combines frontend and device models (Eqs. 2-3).
	NewSystemModel = core.NewSystemModel
	// MissRatioByThreshold classifies hits/misses by latency threshold.
	MissRatioByThreshold = core.MissRatioByThreshold
	// RenderDiagnosis writes the bottleneck-identification report.
	RenderDiagnosis = core.RenderDiagnosis
)

// DefaultMissThreshold is the hit/miss latency threshold (15 µs).
const DefaultMissThreshold = core.DefaultMissThreshold

// ---------------------------------------------------------------------------
// Admission control and capacity planning.

// Deployment describes a homogeneous deployment (identical devices behind a
// shared frontend tier) evaluated at varying aggregate load — the shared
// operating-point parameterization of the capacity and overload examples
// and of cosserve's /advise endpoint.
type Deployment = core.Deployment

var (
	// MaxAdmissibleRate finds the admission threshold: the largest
	// aggregate rate at which the deployment still meets the SLA target.
	MaxAdmissibleRate = core.MaxAdmissibleRate
	// Headroom returns MaxAdmissibleRate minus the current rate.
	Headroom = core.Headroom
)

// ---------------------------------------------------------------------------
// Online serving (cmd/cosserve); see internal/serve.

type (
	// ServeConfig configures the SLA-prediction service: device properties,
	// deployment size, sliding-window span and serving limits.
	ServeConfig = serve.Config
	// ServeEngine is the concurrent, memoizing prediction engine.
	ServeEngine = serve.Engine
	// ServeObservation is one interval of per-device measurements — the
	// /ingest wire format.
	ServeObservation = serve.Observation
)

var (
	// NewServeServer builds a serving instance from the configuration.
	NewServeServer = serve.NewServer
	// NewServeEngine builds the engine without the HTTP layer.
	NewServeEngine = serve.NewEngine
	// DefaultServeConfig returns serving defaults for a deployment size.
	DefaultServeConfig = serve.DefaultConfig
)

// Hardened HTTP serving: slow-client timeouts and graceful drain.
var (
	// NewServeHTTPServer wraps a handler in an http.Server with hardened
	// read/write/idle timeouts at their defaults.
	NewServeHTTPServer = func(addr string, h http.Handler) *http.Server {
		return serve.NewHTTPServer(addr, h, serve.HTTPTimeouts{})
	}
	// ListenAndServeGraceful serves until ctx is cancelled, then drains
	// in-flight requests for up to grace before closing hard.
	ListenAndServeGraceful = serve.ListenAndServeGraceful
)

// ---------------------------------------------------------------------------
// Sharded serving tier (cmd/cosrouter); see internal/cluster.

type (
	// ClusterConfig configures the router of a sharded, replicated serving
	// tier: shard node URLs, replication factor, ring layout, health
	// probing, hedging and retry policy.
	ClusterConfig = cluster.Config
)

var (
	// NewClusterRouter builds a router over shard nodes.
	NewClusterRouter = cluster.NewRouter
	// DefaultClusterConfig returns routing defaults for a node list and
	// deployment size.
	DefaultClusterConfig = cluster.DefaultConfig
)

// ---------------------------------------------------------------------------
// Online calibration and drift detection; see internal/calib.

var (
	// DefaultCalibConfig returns detector thresholds tuned for windows
	// carrying on the order of a hundred disk operations per device.
	DefaultCalibConfig = calib.DefaultConfig
)

// ---------------------------------------------------------------------------
// Distributions.

// Distribution types; see internal/dist.
type (
	Degenerate = dist.Degenerate
)

// Distribution constructors and fitting.
var (
	NewGammaMeanSCV = dist.NewGammaMeanSCV
)

// ---------------------------------------------------------------------------
// Laplace inversion.

// Inverter is a numerical Laplace-inversion rule, given by its quadrature
// nodes and weights (AppendNodes); the model inverts every transform
// through them.
type Inverter = numeric.Inverter

// Inversion algorithm constructors.
var (
	NewEuler = numeric.NewEuler
)

// ---------------------------------------------------------------------------
// Cluster simulator (the Swift-like testbed substitute).

// Backend concurrency models.
const (
	// EventDriven is the paper's architecture.
	EventDriven = simstore.EventDriven
	// ThreadPerConnection is the blocking-thread alternative.
	ThreadPerConnection = simstore.ThreadPerConnection
)

// Simulator constructors and calibration benchmarks.
var (
	// NewCluster builds a simulated cluster.
	NewCluster = simstore.New
	// DefaultSimConfig mirrors the paper's 7-node testbed.
	DefaultSimConfig = simstore.DefaultConfig
)

// ---------------------------------------------------------------------------
// Workloads.

// Trace types; see internal/trace.
type (
	// TraceRecord is one request of a workload trace.
	TraceRecord = trace.Record
	// Schedule is a phased arrival-rate plan.
	Schedule = trace.Schedule
	// WikibenchOptions configures conversion of wikibench-format traces
	// (the format of the trace the paper replays).
	WikibenchOptions = trace.WikibenchOptions
)

// Workload constructors.

var (
	NewCatalog         = trace.NewCatalog
	GenerateTrace      = trace.Generate
	RescaleTrace       = trace.Rescale
	SummarizeTrace     = trace.Summarize
	PaperSchedule      = trace.PaperSchedule
	WikipediaLikeSizes = trace.WikipediaLikeSizes
	WriteTrace         = trace.Write
	ReadTrace          = trace.Read
	ParseWikibench     = trace.ParseWikibench
)

// ---------------------------------------------------------------------------
// Load generation (open-loop client driver); see internal/load.

type (
	// LoadConfig parameterizes one open-loop run against a serving
	// endpoint: a Schedule of Poisson arrival phases, the ingest wire
	// mode, and an independent predict-probe stream.
	LoadConfig = load.Config
)

// Ingest wire modes accepted by LoadConfig.Mode and negotiated by /ingest.
const (
	LoadModeNDJSON = load.ModeNDJSON
)

var (
	// RunLoad executes an open-loop run and blocks until the schedule
	// finishes and in-flight requests drain.
	RunLoad = load.Run
)

// ---------------------------------------------------------------------------
// Experiments (the paper's evaluation).

// Experiment types; see internal/experiments.
type (
	// ScenarioConfig parameterizes a Fig. 6/7-style sweep.
	ScenarioConfig = experiments.ScenarioConfig
	// ScenarioResult holds observed and predicted percentiles per step.
	ScenarioResult = experiments.ScenarioResult
	// SweepData is a captured rate sweep (measurement windows plus
	// calibrated device properties), re-evaluable without re-simulating.
	SweepData = experiments.SweepData
	// Variant is one modeling choice of an ablation.
	Variant = experiments.Variant
)

// Experiment drivers.
var (
	ScenarioS1        = experiments.DefaultS1
	ScenarioS16       = experiments.DefaultS16
	RunScenario       = experiments.RunScenario
	RunSweep          = experiments.RunSweep
	EvaluateSweep     = experiments.EvaluateSweep
	RunFig5           = experiments.RunFig5
	DefaultFig5       = experiments.DefaultFig5
	RunAblation       = experiments.RunAblation
	BuildSystemModel  = experiments.BuildSystemModel
	CalibrateDevice   = experiments.Calibrate
	RenderTable1      = experiments.RenderTable1
	RenderTable2      = experiments.RenderTable2
	WTAVariants       = experiments.WTAVariants
	DiskQueueVariants = experiments.DiskQueueVariants
	CompoundVariants  = experiments.CompoundVariants
	InverterVariants  = experiments.InverterVariants

	DefaultArchComparison = experiments.DefaultArchComparison
	RunArchComparison     = experiments.RunArchComparison

	DefaultWriteSensitivity     = experiments.DefaultWriteSensitivity
	RunWriteSensitivity         = experiments.RunWriteSensitivity
	DefaultWorkloadIndependence = experiments.DefaultWorkloadIndependence
	RunWorkloadIndependence     = experiments.RunWorkloadIndependence

	DefaultMeanVsPercentile = experiments.DefaultMeanVsPercentile
	RunMeanVsPercentile     = experiments.RunMeanVsPercentile
)

// ---------------------------------------------------------------------------
// Online statistics.

// Statistics constructors.
var (
	// WilsonInterval is the binomial proportion confidence interval used
	// for observed SLA-meeting fractions.
	WilsonInterval = stats.WilsonInterval
)
