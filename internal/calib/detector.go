package calib

import (
	"math"
	"sort"

	"cosmodel/internal/dist"
)

// PageHinkley is a two-sided Page–Hinkley change detector: it accumulates
// deviations of the input from its own running mean and flags when the
// cumulative deviation since the most favourable point exceeds lambda in
// either direction. Deviations smaller than delta per step are tolerated.
type PageHinkley struct {
	delta, lambda float64

	n    float64
	mean float64

	sumUp   float64 // cumulative (x - mean - delta): rises on upward drift
	minUp   float64
	sumDown float64 // cumulative (x - mean + delta): falls on downward drift
	maxDown float64
}

// NewPageHinkley builds a detector with per-step tolerance delta and flag
// threshold lambda.
func NewPageHinkley(delta, lambda float64) *PageHinkley {
	return &PageHinkley{delta: delta, lambda: lambda}
}

// Add absorbs one observation and reports whether the detector flags.
func (p *PageHinkley) Add(x float64) bool {
	p.n++
	p.mean += (x - p.mean) / p.n
	p.sumUp += x - p.mean - p.delta
	if p.sumUp < p.minUp {
		p.minUp = p.sumUp
	}
	p.sumDown += x - p.mean + p.delta
	if p.sumDown > p.maxDown {
		p.maxDown = p.sumDown
	}
	return p.Score() >= 1
}

// Score is the detector statistic normalized by lambda: >= 1 flags.
func (p *PageHinkley) Score() float64 {
	up := p.sumUp - p.minUp
	down := p.maxDown - p.sumDown
	return math.Max(up, down) / p.lambda
}

// Reset restarts the detector (a new baseline regime).
func (p *PageHinkley) Reset() { *p = PageHinkley{delta: p.delta, lambda: p.lambda} }

// CUSUM is a two-sided cumulative-sum change detector against a fixed
// reference captured from the first observation after a reset: per-step
// deviations within the slack are absorbed, and a cumulative excess beyond
// the threshold flags.
type CUSUM struct {
	slack, threshold float64

	ref    float64
	hasRef bool
	up     float64
	down   float64
}

// NewCUSUM builds a detector with per-step slack and flag threshold.
func NewCUSUM(slack, threshold float64) *CUSUM {
	return &CUSUM{slack: slack, threshold: threshold}
}

// Add absorbs one observation and reports whether the detector flags. The
// first observation after a reset only sets the reference.
func (c *CUSUM) Add(x float64) bool {
	if !c.hasRef {
		c.ref, c.hasRef = x, true
		return false
	}
	d := x - c.ref
	c.up = math.Max(0, c.up+d-c.slack)
	c.down = math.Max(0, c.down-d-c.slack)
	return c.Score() >= 1
}

// Score is the detector statistic normalized by the threshold: >= 1 flags.
func (c *CUSUM) Score() float64 {
	return math.Max(c.up, c.down) / c.threshold
}

// Reset restarts the detector; the next Add captures a fresh reference.
func (c *CUSUM) Reset() { *c = CUSUM{slack: c.slack, threshold: c.threshold} }

// ksCheck runs the shape-only goodness-of-fit test: the Kolmogorov–Smirnov
// distance between the samples and the served family rescaled to the
// samples' own mean, against the threshold factor/sqrt(n). Rescaling first
// makes the check blind to pure mean drift — which the model's online §IV-B
// tracking already absorbs — so only genuine shape changes flag. It returns
// the statistic, the threshold and the verdict; below minSamples it reports
// (0, 0, false). It sorts samples in place (the mean is summed first, in
// the order given), so callers pass a scratch copy.
func ksCheck(samples []float64, served dist.Distribution, factor float64, minSamples int) (stat, threshold float64, flagged bool) {
	if len(samples) < minSamples || served == nil {
		return 0, 0, false
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	m := sum / float64(len(samples))
	if !(m > 0) {
		return 0, 0, false
	}
	sort.Float64s(samples)
	stat = dist.KolmogorovSmirnovSorted(samples, dist.ScaleToMean(served, m))
	threshold = factor / math.Sqrt(float64(len(samples)))
	return stat, threshold, stat > threshold
}
