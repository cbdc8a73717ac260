package calib

import "cosmodel/internal/core"

// ewma is an exponentially weighted mean: the streaming moment tracker
// behind the subsystem's live estimates.
type ewma struct {
	alpha float64
	v     float64
	init  bool
}

func (e *ewma) add(x float64) {
	if !e.init {
		e.v, e.init = x, true
		return
	}
	e.v += e.alpha * (x - e.v)
}

func (e *ewma) value() float64 { return e.v }

// winBuf keeps the raw samples of the most recent max windows, oldest
// evicted whole-window at a time — the population for the K-S shape check.
// It is a ring of max window slots whose storage is reused, read oldest
// first into one reused concatenation buffer: once the slots have held
// windows as large as the arriving ones, add and all allocate nothing.
type winBuf struct {
	wins [][]float64 // ring of window slots
	head int         // slot of the oldest buffered window
	k    int         // buffered windows
	n    int         // buffered samples
	cat  []float64   // all's buffer
}

func newWinBuf(max int) *winBuf { return &winBuf{wins: make([][]float64, max)} }

// add appends one window's samples (empty windows still count for eviction,
// so a quiet class ages out of the buffer rather than pinning stale shape).
func (b *winBuf) add(samples []float64) {
	if b.k == len(b.wins) {
		b.n -= len(b.wins[b.head])
		b.head = (b.head + 1) % len(b.wins)
		b.k--
	}
	i := (b.head + b.k) % len(b.wins)
	b.wins[i] = append(b.wins[i][:0], samples...)
	b.k++
	b.n += len(samples)
}

func (b *winBuf) count() int { return b.n }

// all concatenates the buffered samples, newest last, into a buffer that
// the next call reuses: the result is valid until then, and the caller may
// reorder it.
func (b *winBuf) all() []float64 {
	b.cat = b.cat[:0]
	for i := 0; i < b.k; i++ {
		b.cat = append(b.cat, b.wins[(b.head+i)%len(b.wins)]...)
	}
	return b.cat
}

func (b *winBuf) reset() { b.head, b.k, b.n = 0, 0, 0 }

// estimator holds one device's streaming calibration estimates: EW moments
// of the overall disk service mean and the latency-threshold miss ratio,
// plus per-class rolling raw-sample buffers feeding the shape check.
type estimator struct {
	diskMean ewma
	missLat  ewma // latency-threshold miss ratio; init only once latencies arrive
	classes  [3]*winBuf
}

func newEstimator(cfg *Config) *estimator {
	e := &estimator{
		diskMean: ewma{alpha: cfg.EWAlpha},
		missLat:  ewma{alpha: cfg.EWAlpha},
	}
	for i := range e.classes {
		e.classes[i] = newWinBuf(cfg.SampleWindows)
	}
	return e
}

// observe absorbs one window. It returns the window's overall mean disk
// service time (0 when the window carried no disk activity).
func (e *estimator) observe(cfg *Config, ws WindowStats) float64 {
	e.classes[0].add(ws.Index)
	e.classes[1].add(ws.Meta)
	e.classes[2].add(ws.Data)
	b := ws.Metrics.DiskMean
	if b <= 0 {
		// Derive it from the window's raw samples when the metrics carry
		// none — the same quantity, measured at the source.
		var sum float64
		var n int
		for _, set := range [][]float64{ws.Index, ws.Meta, ws.Data} {
			for _, v := range set {
				sum += v
			}
			n += len(set)
		}
		if n > 0 {
			b = sum / float64(n)
		}
	}
	if b > 0 {
		e.diskMean.add(b)
	}
	if len(ws.OpLatencies) > 0 {
		e.missLat.add(core.MissRatioByThreshold(ws.OpLatencies, cfg.missThreshold()))
	}
	return b
}

// missByLatency returns the EW latency-threshold miss ratio, or -1 before
// any operation latencies were supplied.
func (e *estimator) missByLatency() float64 {
	if !e.missLat.init {
		return -1
	}
	return e.missLat.value()
}

func (e *estimator) reset() {
	for _, b := range e.classes {
		b.reset()
	}
	// The EW moments keep their values: they re-baseline exponentially on
	// the new regime, which is exactly what the cooldown period is for.
}
