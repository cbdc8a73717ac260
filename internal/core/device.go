package core

import (
	"fmt"
	"math"
	"math/cmplx"

	"cosmodel/internal/dist"
	"cosmodel/internal/lst"
	"cosmodel/internal/numeric"
	"cosmodel/internal/queueing"
)

// wtaNodes and wtaWeights are the 32-point Gauss–Legendre rule on [0,1]
// behind the exact WTA. Against an independent CDF-domain evaluation of the
// paper's integral its inverted CDF is within 2e-6 up to per-process
// ρ = 0.95 (TestExactWTAMatchesIntegral).
var wtaNodes, wtaWeights = numeric.GaussLegendre01(32)

// DeviceModel is the paper's backend-tier model for one storage device: the
// union-operation M/G/1 queue, its waiting-time distribution (which doubles
// as the WTA distribution), and the backend response-time distribution.
type DeviceModel struct {
	props   DeviceProperties
	metrics OnlineMetrics
	opts    Options

	// Means of the waiting time of the request processing queue Wbe, the
	// waiting time for being accept()-ed Wa, the backend response time Sbe
	// (Eq. 1) and the write replica response Swr.
	meanWbe, meanWa, meanSbe, meanSwr float64

	// Write class, populated when OnlineMetrics.WriteRate > 0.
	// A PUT replica sub-request is parse + index write + WriteChunks
	// data-chunk writes + metadata write, all reaching the disk (no cache
	// shortcut) — but the event loop does not serve it as one operation.
	// The data chunks arrive over the network one at a time, so the
	// process interleaves other requests between them: the replica is a
	// head operation (parse + index write), writePW middle operations
	// (one data-chunk write each) and a tail operation (final chunk +
	// metadata write), each a separate FCFS arrival to the same
	// per-process queue as reads.
	writeRate float64
	writePW   float64 // mean middle-chunk ops per write (WriteChunks-1)
	// Normalized service-mixture weights of the shared queue over the
	// four operation streams [read union, write head, write middle chunk,
	// write tail].
	fracRead, fracHead, fracMid, fracTail float64

	procRate float64 // per-process operation arrival rate

	// The leaf transforms, from which responseNode and writeNode compute
	// Wa(s), Sbe(s) and Swr(s) at one frequency with each leaf evaluated
	// exactly once.
	parse                    lst.Transform // backend parse latency
	unionQ                   queueing.MG1  // per-process queue; its service is serviceAt
	rawIdx, rawMeta, rawData lst.Transform // raw disk latency per class
	rawShared                bool          // one disk transform stands in for all three classes
	missIdx, missMeta        float64       // effective (ODOPR-adjusted) miss ratios
	missData                 float64
	extraVal                 func(pd complex128) complex128 // extra-reads factor given the opData value
}

// NewDeviceModel builds the model for one device. It returns ErrOverload
// (wrapped) if the union-operation queue has no steady state.
func NewDeviceModel(props DeviceProperties, m OnlineMetrics, opts Options) (*DeviceModel, error) {
	if err := props.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	d := &DeviceModel{props: props, metrics: m, opts: opts}
	if err := d.build(); err != nil {
		return nil, err
	}
	return d, nil
}

// build sets up the leaves, the queue and the means following Section
// III-B. Each mean is the sum of its factors' means, left to right in the
// order the factors appear in the node evaluators.
func (d *DeviceModel) build() error {
	m := d.metrics
	// Step 1: effective raw disk-latency transforms per operation.
	idx, meta, data, shared, err := d.diskOperationTransforms()
	if err != nil {
		return err
	}
	d.rawIdx, d.rawMeta, d.rawData, d.rawShared = idx, meta, data, shared
	// Step 2: cache-aware operation latencies
	// index(s) = m·indexd(s) + (1-m), etc. (leafValues); Validate keeps
	// the miss ratios in [0,1].
	d.missIdx, d.missMeta, d.missData = m.MissIndex, m.MissMeta, m.MissData
	p := m.ExtraReads()
	if d.opts.ODOPR {
		// Baseline: at most one disk operation per request — index,
		// metadata and extra data reads all "hit".
		d.missIdx, d.missMeta, p = 0, 0, 0
	}
	d.parse = lst.FromDist(d.props.ParseBE)
	// The cache-mixed operation means E[index], E[meta], E[data].
	idxMean, metaMean, dataMean := d.missIdx*idx.Mean, d.missMeta*meta.Mean, d.missData*data.Mean

	// Step 3: the union operation. Each union operation is one request's
	// parse + index + meta + data plus a random number of extra data
	// chunk reads belonging to other requests, interleaved by the event
	// loop: a compound of the opData factor pd with p reads on average.
	extraMean := p * dataMean
	switch d.opts.Compound {
	case CompoundFixed:
		n := int(math.Round(p))
		extraMean = float64(n) * dataMean
		d.extraVal = func(pd complex128) complex128 {
			if n <= 0 {
				return 1
			}
			return cmplx.Pow(pd, complex(float64(n), 0))
		}
	case CompoundGeometric:
		q := p / (1 + p)
		d.extraVal = func(pd complex128) complex128 {
			if p <= 0 {
				return 1
			}
			return complex(1-q, 0) / (1 - complex(q, 0)*pd)
		}
	default:
		d.extraVal = func(pd complex128) complex128 {
			if p <= 0 {
				return 1
			}
			return cmplx.Exp(complex(p, 0) * (pd - 1))
		}
	}
	unionMean := d.parse.Mean + idxMean + metaMean + dataMean + extraMean

	// Step 4: the M/G/1 queue of union operations, per process. With
	// write traffic the same FCFS queue serves both classes, so write
	// load inflates the waiting (and through it Wa and Sbe) seen by
	// reads, and vice versa — but a write replica does NOT enter the
	// queue as one monolithic operation. The event loop serves it as
	// separate operations with other work interleaved between them (the
	// chunks arrive over the network one at a time): a head op (parse +
	// index write), one op per middle data chunk, and a tail op (final
	// chunk + metadata write). Folding all of that into a single service
	// time would inflate the service second moment — and through
	// Pollaczek–Khinchin the waiting of every class — several-fold, so
	// the queue's service is the rate-weighted mixture over the four
	// operation streams and its arrival rate counts operations, not
	// replicas. A zero write rate leaves the read-only model unchanged.
	d.writeRate = m.WriteRate
	svcMean := unionMean
	totalRate := m.Rate
	var headMean, tailMean float64
	if m.WriteRate > 0 {
		// The middle-chunk count is Poisson with mean WriteChunks-1,
		// mirroring the read path's extra-reads treatment of a
		// size-dependent operation count. Every write op reaches the
		// disk — no cache shortcut.
		d.writePW = m.WriteChunks - 1
		headMean = d.parse.Mean + d.rawIdx.Mean
		tailMean = d.rawData.Mean + d.rawMeta.Mean
		totalRate = m.Rate + m.WriteRate + m.WriteRate*d.writePW + m.WriteRate
		d.fracRead = m.Rate / totalRate
		d.fracHead = m.WriteRate / totalRate
		d.fracMid = m.WriteRate * d.writePW / totalRate
		d.fracTail = m.WriteRate / totalRate
		svcMean = d.fracRead*unionMean + d.fracHead*headMean + d.fracMid*d.rawData.Mean + d.fracTail*tailMean
	}
	d.procRate = totalRate / float64(m.Procs)
	q, err := queueing.NewMG1(d.procRate, lst.Transform{F: d.serviceAt, Mean: svcMean})
	if err != nil {
		return fmt.Errorf("%w: device union queue: %v", ErrOverload, err)
	}
	d.unionQ = q
	// The P-K mean reads the service's second moment off serviceAt.
	d.meanWbe = q.WaitingLST().Mean

	// Step 5: backend response time, Eq. 1:
	// Sbe = Wbe ∗ parse ∗ index ∗ meta ∗ data.
	d.meanSbe = d.meanWbe + d.parse.Mean + idxMean + metaMean + dataMean
	if m.WriteRate > 0 {
		// Write replica response: each of the replica's operations
		// queues behind the shared waiting independently, so the
		// response is the convolution of per-operation sojourns —
		// head, a Poisson-compound number of middle-chunk ops, and
		// tail (writeNode).
		midMean := d.writePW * (d.meanWbe + d.rawData.Mean)
		d.meanSwr = (d.meanWbe + headMean) + midMean + (d.meanWbe + tailMean)
	}

	// Step 6: waiting time for being accept()-ed (waValue).
	switch d.opts.WTA {
	case WTANone:
		d.meanWa = 0
	case WTAExact:
		d.meanWa = d.meanWbe / 2
	default:
		d.meanWa = d.meanWbe
	}
	return nil
}

// diskOperationTransforms produces the effective raw disk latency transform
// per operation class, handling both the single-process case (scaled fitted
// distributions) and the multi-process case (disk queue sojourn). shared
// reports that one transform stands in for all three classes, letting the
// evaluation engine evaluate it once per frequency.
func (d *DeviceModel) diskOperationTransforms() (idx, meta, data lst.Transform, shared bool, err error) {
	m := d.metrics
	bi, bm, bd := d.scaledServiceMeans()
	iDist := dist.ScaleToMean(d.props.IndexDisk, bi)
	mDist := dist.ScaleToMean(d.props.MetaDisk, bm)
	dDist := dist.ScaleToMean(d.props.DataDisk, bd)

	if m.Procs == 1 {
		return lst.FromDist(iDist), lst.FromDist(mDist), lst.FromDist(dDist), false, nil
	}

	// Nbe > 1: the disk is shared by Nbe processes, each blocking on its
	// one outstanding operation, so at most Nbe operations are in the
	// disk system. Different operation types mix in the disk queue, so a
	// single "disk response latency" distribution replaces all three.
	mi, mm, md := m.MissIndex, m.MissMeta, m.MissData
	if d.opts.ODOPR {
		mi, mm = 0, 0
	}
	// Writes always reach the disk: every PUT replica adds one index
	// write, one metadata write and WriteChunks data-chunk writes to the
	// disk arrival stream (zero terms for a read-only workload).
	rIndex := mi*m.Rate + m.WriteRate
	rMeta := mm*m.Rate + m.WriteRate
	dataRate := m.DataRate
	if d.opts.ODOPR {
		dataRate = m.Rate
	}
	rData := md*dataRate + m.WriteRate*m.WriteChunks
	rDisk := rIndex + rMeta + rData
	if rDisk <= 0 {
		// Nothing reaches the disk; latencies are all zero.
		zero := lst.FromDist(dist.Degenerate{Value: 0})
		return zero, zero, zero, true, nil
	}
	// Overall mean raw service time b for the operation mix.
	b := (rIndex*bi + rMeta*bm + rData*bd) / rDisk

	var sojourn lst.Transform
	switch d.opts.DiskQueue {
	case DiskMG1:
		// Ablation: unbounded disk queue with the true service mixture.
		svc := lst.Mix(
			[]lst.Transform{lst.FromDist(iDist), lst.FromDist(mDist), lst.FromDist(dDist)},
			[]float64{rIndex, rMeta, rData},
		)
		q, qerr := queueing.NewMG1(rDisk, svc)
		if qerr != nil {
			return idx, meta, data, false, fmt.Errorf("%w: disk M/G/1: %v", ErrOverload, qerr)
		}
		sojourn = q.SojournLST()
	default:
		// The paper's approximation: M/M/1/K with K = Nbe.
		q, qerr := queueing.NewMM1K(rDisk, 1/b, m.Procs)
		if qerr != nil {
			return idx, meta, data, false, fmt.Errorf("%w: %v", ErrBadParams, qerr)
		}
		sojourn = q.SojournLST()
	}
	return sojourn, sojourn, sojourn, true, nil
}

// scaledServiceMeans solves Section IV-B's proportion equations for the
// per-operation mean service times (bi, bm, bd) given the online overall
// mean b; if no online measurement is available the fitted means are used
// unchanged.
func (d *DeviceModel) scaledServiceMeans() (bi, bm, bd float64) {
	bi = d.props.IndexDisk.Mean()
	bm = d.props.MetaDisk.Mean()
	bd = d.props.DataDisk.Mean()
	b := d.metrics.DiskMean
	if b <= 0 {
		return bi, bm, bd
	}
	pi, pm, pd := d.props.Proportions()
	m := d.metrics
	// bi/pi = bm/pm = bd/pd = x and the rate-weighted mean over every
	// disk operation class — read misses plus the write stream's
	// unconditional index/meta/chunk writes — equals the observed b.
	num := (m.MissIndex*m.Rate + m.MissMeta*m.Rate + m.MissData*m.DataRate +
		m.WriteRate*(2+m.WriteChunks)) * b
	den := m.MissIndex*pi*m.Rate + m.MissMeta*pm*m.Rate + m.MissData*pd*m.DataRate +
		m.WriteRate*(pi+pm+m.WriteChunks*pd)
	if den <= 0 || num <= 0 {
		return bi, bm, bd
	}
	x := num / den
	return pi * x, pm * x, pd * x
}

// Waiting returns the request-processing-queue waiting transform Wbe.
func (d *DeviceModel) Waiting() lst.Transform {
	return lst.Transform{F: func(s complex128) complex128 {
		return d.waitingValue(s, d.parse.F(s))
	}, Mean: d.meanWbe}
}

// Backend returns the backend response transform Sbe (Eq. 1).
func (d *DeviceModel) Backend() lst.Transform {
	return lst.Transform{F: func(s complex128) complex128 {
		_, sbe := d.responseNode(s, d.parse.F(s))
		return sbe
	}, Mean: d.meanSbe}
}

// WTA returns the accept-waiting transform Wa.
func (d *DeviceModel) WTA() lst.Transform {
	return lst.Transform{F: func(s complex128) complex128 {
		wa, _ := d.responseNode(s, d.parse.F(s))
		return wa
	}, Mean: d.meanWa}
}

// Utilization returns the per-process union-operation utilization ρ (both
// traffic classes when write traffic is modeled).
func (d *DeviceModel) Utilization() float64 { return d.unionQ.Utilization() }

// Rate returns the device's request arrival rate r.
func (d *DeviceModel) Rate() float64 { return d.metrics.Rate }

// WriteRate returns the device's PUT replica arrival rate (0 for a
// read-only workload).
func (d *DeviceModel) WriteRate() float64 { return d.metrics.WriteRate }

// WriteResponse returns the write replica response transform Swr: the
// convolution of the per-operation sojourns (Wbe ∗ head) ∗
// compound(Wbe ∗ chunk) ∗ (Wbe ∗ tail) — the zero Transform when no write
// traffic is modeled.
func (d *DeviceModel) WriteResponse() lst.Transform {
	if d.writeRate <= 0 {
		return lst.Transform{}
	}
	return lst.Transform{F: func(s complex128) complex128 {
		_, swr := d.writeNode(s, d.parse.F(s))
		return swr
	}, Mean: d.meanSwr}
}

// BackendCDF evaluates the backend response-latency CDF at t. An invalid
// inversion walks the configured fallback inverters as the system engine
// does (validCDF); if none recovers it, the error wraps
// numeric.ErrNumerical.
func (d *DeviceModel) BackendCDF(t float64) (float64, error) {
	if t <= 0 {
		return 0, nil
	}
	raw := func(inv numeric.Inverter) float64 {
		return numeric.Invert(inv, func(s complex128) complex128 {
			_, sbe := d.responseNode(s, d.parse.F(s))
			return sbe / s
		}, t)
	}
	return validCDF(d.opts, raw(d.opts.inverter()), t, raw)
}

// responseNode evaluates the accept-waiting transform Wa and the backend
// response transform Sbe at one inversion frequency s, sharing every leaf
// evaluation between them: the parse/index/meta/data factors enter the
// union service time feeding the P-K waiting term, Sbe's own convolution
// and Wa = Wbe, yet each leaf is evaluated exactly once, and in
// multi-process mode the shared disk-sojourn transform once for all three
// operation classes. pr is the backend-parse factor at s (the caller
// evaluates it once for every device sharing the ParseBE). It is safe for
// concurrent use: all receiver state is immutable after build().
func (d *DeviceModel) responseNode(s, pr complex128) (wa, sbe complex128) {
	pi, pm, pd, ri, rm, rd := d.leafValues(s)
	union := pr * pi * pm * pd * d.extraVal(pd)
	w := d.unionQ.WaitingValue(s, d.serviceValue(union, pr, ri, rm, rd))
	sbe = w * pr * pi * pm * pd
	return d.waValue(s, w), sbe
}

// waitingValue evaluates the shared queue's waiting transform Wbe at s from
// the leaf transforms, pr being the backend-parse factor at s: the waiting
// term of responseNode on its own.
func (d *DeviceModel) waitingValue(s, pr complex128) complex128 {
	pi, pm, pd, ri, rm, rd := d.leafValues(s)
	union := pr * pi * pm * pd * d.extraVal(pd)
	return d.unionQ.WaitingValue(s, d.serviceValue(union, pr, ri, rm, rd))
}

// writeNode is responseNode's write-class sibling: it evaluates Wa and the
// write replica response Swr (the convolution of per-operation sojourns:
// head, Poisson-compound middle chunks, tail) at one inversion frequency s,
// each leaf transform evaluated exactly once. The shared queue's waiting
// term needs every operation stream's value (the service mixture), so the
// read factors are computed here too. Only meaningful on a device built
// with OnlineMetrics.WriteRate > 0; a read-only device reports a zero
// response (it contributes nothing to a write mixture). pr is the
// backend-parse factor at s, as for responseNode.
func (d *DeviceModel) writeNode(s, pr complex128) (wa, swr complex128) {
	if d.writeRate <= 0 {
		return 1, 0
	}
	pi, pm, pd, ri, rm, rd := d.leafValues(s)
	union := pr * pi * pm * pd * d.extraVal(pd)
	w := d.unionQ.WaitingValue(s, d.serviceValue(union, pr, ri, rm, rd))
	swr = (w * (pr * ri)) * (w * (rd * rm))
	if d.writePW > 0 {
		swr *= cmplx.Exp(complex(d.writePW, 0) * (w*rd - 1))
	}
	return d.waValue(s, w), swr
}

// serviceAt is the shared queue's service transform B(s), composed from the
// leaf transforms at s. It is unionQ's service, so the P-K mean E[Wbe]
// (lst.SecondMomentNumeric) probes the same arithmetic the node evaluators
// use.
func (d *DeviceModel) serviceAt(s complex128) complex128 {
	pr := d.parse.F(s)
	pi, pm, pd, ri, rm, rd := d.leafValues(s)
	return d.serviceValue(pr*pi*pm*pd*d.extraVal(pd), pr, ri, rm, rd)
}

// leafValues evaluates the device's own leaf transforms at one frequency:
// the cache-mixed per-operation factors (pi, pm, pd) and the raw disk
// factors behind them (ri, rm, rd — the write path reads them directly,
// misses being certain for writes). In multi-process mode one shared
// disk-sojourn evaluation stands in for all three raw classes. The parse
// factor is the caller's: devices sharing a ParseBE share its value.
func (d *DeviceModel) leafValues(s complex128) (pi, pm, pd, ri, rm, rd complex128) {
	if d.rawShared {
		rd = d.rawData.F(s)
		ri, rm = rd, rd
	} else {
		ri = d.rawIdx.F(s)
		rm = d.rawMeta.F(s)
		rd = d.rawData.F(s)
	}
	pi = complex(d.missIdx, 0)*ri + complex(1-d.missIdx, 0)
	pm = complex(d.missMeta, 0)*rm + complex(1-d.missMeta, 0)
	pd = complex(d.missData, 0)*rd + complex(1-d.missData, 0)
	return
}

// serviceValue composes the shared queue's service-transform value from the
// read union-operation value (and, with write traffic, the three write
// operation streams: head parse·index, middle chunk, tail chunk·meta): the
// rate-weighted mixture.
func (d *DeviceModel) serviceValue(union, pr, ri, rm, rd complex128) complex128 {
	if d.writeRate <= 0 {
		return union
	}
	return complex(d.fracRead, 0)*union + complex(d.fracHead, 0)*(pr*ri) +
		complex(d.fracMid, 0)*rd + complex(d.fracTail, 0)*(rd*rm)
}

// waValue maps the shared waiting value onto the configured WTA mode. The
// exact WTA, Wa(s) = Σ_j w_j·Wbe(u_j·s), evaluates each Wbe(u_j·s) through
// the leaf transforms.
func (d *DeviceModel) waValue(s, w complex128) complex128 {
	switch d.opts.WTA {
	case WTANone:
		return 1
	case WTAExact:
		var sum complex128
		for j, u := range wtaNodes {
			us := complex(u, 0) * s
			sum += complex(wtaWeights[j], 0) * d.waitingValue(us, d.parse.F(us))
		}
		return sum
	default:
		return w
	}
}
