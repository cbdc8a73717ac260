package calib

import (
	"fmt"
	"sync"
	"time"

	"cosmodel/internal/core"
	"cosmodel/internal/dist"
)

// deviceCalib is one device's calibration state: streaming estimates, drift
// detectors, the debounce/cooldown counters and audit timestamps.
type deviceCalib struct {
	est *estimator
	ph  *PageHinkley
	cu  *CUSUM

	phRef float64 // normalization baseline for the disk mean; 0 until seen

	windows     uint64
	consecutive int
	cooldown    int

	// driftSamples accumulates the raw samples of flagged windows — pure
	// post-change data, the refit population. Cleared when the flag streak
	// breaks or a recalibration fires.
	driftSamples [3][]float64

	lastMetrics   core.OnlineMetrics
	metricsValid  bool
	driftScore    float64
	ksStat, ksThr float64

	recals    uint64
	lastDrift time.Time
	lastRecal time.Time
}

func (d *deviceCalib) state() DeviceState {
	switch {
	case d.cooldown > 0:
		return Recalibrating
	case d.consecutive > 0:
		return Drifting
	}
	return Stable
}

// resetDetectors re-baselines the device on the (new) current regime.
func (d *deviceCalib) resetDetectors() {
	d.ph.Reset()
	d.cu.Reset()
	d.phRef = 0
	d.consecutive = 0
	d.driftSamples = [3][]float64{}
	d.driftScore = 0
	d.ksStat, d.ksThr = 0, 0
	d.est.reset()
}

// Controller runs the online calibration loop: feed it one WindowStats per
// device per observation window (Observe), and it maintains the streaming
// estimators, detects confirmed drift, re-solves the device properties and
// applies them through the callback. All methods are safe for concurrent
// use.
type Controller struct {
	cfg   Config
	apply func(core.DeviceProperties) error

	mu          sync.Mutex
	base        core.DeviceProperties
	devs        []*deviceCalib
	windows     uint64
	recals      uint64
	applyErrors uint64
	lastRecal   time.Time
	lastSource  string
	// cooled holds every device's state from just before a recalibration
	// cooled them all down, for the Observe call that fired it; nil
	// otherwise.
	cooled []DeviceState
}

// New builds a controller. base is the currently served device-properties
// calibration; apply is invoked with freshly solved properties when drift is
// confirmed (typically serve.Engine.Recalibrate) and must be safe to call
// from Observe's goroutine. A nil apply makes recalibrations dry-run: state
// still advances, nothing is swapped.
func New(cfg Config, base core.DeviceProperties, apply func(core.DeviceProperties) error) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("%w: base properties: %v", ErrBadConfig, err)
	}
	c := &Controller{cfg: cfg, apply: apply, base: base}
	for i := 0; i < cfg.Devices; i++ {
		c.devs = append(c.devs, &deviceCalib{
			est: newEstimator(&cfg),
			ph:  NewPageHinkley(cfg.PHDelta, cfg.PHLambda),
			cu:  NewCUSUM(cfg.CUSUMSlack, cfg.CUSUMThreshold),
		})
	}
	return c, nil
}

// Props returns the currently applied device properties.
func (c *Controller) Props() core.DeviceProperties {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base
}

// Observe absorbs one device-window of measurements, runs the detectors and
// — when drift is confirmed — recalibrates. It reports whether a
// recalibration fired. An error from the apply callback is returned after
// the device is put into cooldown, so a persistently failing swap cannot
// re-fire every window.
func (c *Controller) Observe(ws WindowStats) (recalibrated bool, err error) {
	if err := ws.Validate(c.cfg.Devices); err != nil {
		return false, err
	}
	c.mu.Lock()
	// Only ws.Device can change state, unless a recalibration cools every
	// device down; recalibrate then records the others' prior states in
	// c.cooled.
	d := c.devs[ws.Device]
	from := d.state()
	recalibrated, err = c.observeLocked(ws)
	type transition struct {
		device   int
		from, to DeviceState
	}
	var one [1]transition
	changed := one[:0]
	if c.cfg.OnTransition != nil {
		if c.cooled != nil {
			c.cooled[ws.Device] = from
			for i, prior := range c.cooled {
				if to := c.devs[i].state(); to != prior {
					changed = append(changed, transition{i, prior, to})
				}
			}
			c.cooled = nil
		} else if to := d.state(); to != from {
			changed = append(changed, transition{ws.Device, from, to})
		}
	}
	c.mu.Unlock()
	// Fire outside the lock so the hook may call Status or Props.
	for _, tr := range changed {
		c.cfg.OnTransition(tr.device, tr.from, tr.to)
	}
	return recalibrated, err
}

// observeLocked is Observe's body; c.mu must be held.
func (c *Controller) observeLocked(ws WindowStats) (recalibrated bool, err error) {
	d := c.devs[ws.Device]
	c.windows++
	d.windows++
	b := d.est.observe(&c.cfg, ws)
	if ws.Metrics.Validate() == nil {
		d.lastMetrics = ws.Metrics
		d.metricsValid = true
	}

	if d.cooldown > 0 {
		d.cooldown--
		return false, nil
	}

	flagged := c.detect(d, ws, b)
	if !flagged {
		d.consecutive = 0
		d.driftSamples = [3][]float64{}
		return false, nil
	}
	d.lastDrift = c.cfg.now()
	d.consecutive++
	d.driftSamples[0] = append(d.driftSamples[0], ws.Index...)
	d.driftSamples[1] = append(d.driftSamples[1], ws.Meta...)
	d.driftSamples[2] = append(d.driftSamples[2], ws.Data...)
	if d.consecutive < c.cfg.ConfirmWindows {
		return false, nil
	}
	return true, c.recalibrate(d)
}

// detect runs every detector for the window and reports whether any
// flagged. The per-detector statistics are recorded for Status.
func (c *Controller) detect(d *deviceCalib, ws WindowStats, b float64) bool {
	flagged := false
	d.driftScore = 0
	if b > 0 {
		if d.phRef == 0 {
			d.phRef = b
		}
		if d.ph.Add(b / d.phRef) {
			flagged = true
		}
		d.driftScore = d.ph.Score()
	}
	if ws.Metrics.Validate() == nil {
		if d.cu.Add(ws.Metrics.MissData) {
			flagged = true
		}
		if s := d.cu.Score(); s > d.driftScore {
			d.driftScore = s
		}
	}
	// Shape check per class against the currently served family.
	served := [3]dist.Distribution{c.base.IndexDisk, c.base.MetaDisk, c.base.DataDisk}
	d.ksStat, d.ksThr = 0, 0
	for class := 0; class < 3; class++ {
		buf := d.est.classes[class]
		if buf.count() < c.cfg.MinKSSamples {
			continue // ksCheck would report (0, 0, false); skip reading the buffer
		}
		stat, thr, flag := ksCheck(buf.all(), served[class], c.cfg.KSFactor, c.cfg.MinKSSamples)
		if flag {
			flagged = true
		}
		if thr > 0 && (d.ksThr == 0 || stat/thr > d.ksStat/d.ksThr) {
			d.ksStat, d.ksThr = stat, thr
		}
		if thr > 0 && stat/thr > d.driftScore {
			d.driftScore = stat / thr
		}
	}
	return flagged
}

// recalibrate re-solves the device properties from the drift evidence and
// applies them. Preference order: a per-class Gamma refit from the pooled
// post-drift samples of every currently drifting device (classes without
// enough samples keep their served distribution); if no class has enough
// samples, the §IV-B rescale of the served properties to the confirming
// device's current mean and operating point. Called with c.mu held.
func (c *Controller) recalibrate(confirming *deviceCalib) error {
	var pooled [3][]float64
	for _, d := range c.devs {
		if d.consecutive == 0 {
			continue
		}
		for class := 0; class < 3; class++ {
			pooled[class] = append(pooled[class], d.driftSamples[class]...)
		}
	}
	props := c.base
	source := ""
	fitted := [3]*dist.Distribution{&props.IndexDisk, &props.MetaDisk, &props.DataDisk}
	for class := 0; class < 3; class++ {
		if len(pooled[class]) < c.cfg.MinRefitSamples {
			continue
		}
		f, err := dist.FitGammaOrDegenerate(pooled[class])
		if err != nil {
			c.cfg.logf("calib: refit class %d on %d samples: %v", class, len(pooled[class]), err)
			continue
		}
		*fitted[class] = f
		source = "refit"
	}
	if source == "" {
		if !confirming.metricsValid || confirming.est.diskMean.value() <= 0 {
			// No refit population and no operating point: nothing sound to
			// apply. Stay drifting and try again next window.
			confirming.consecutive = c.cfg.ConfirmWindows - 1
			c.cfg.logf("calib: drift confirmed but no evidence to recalibrate from; deferring")
			return nil
		}
		rescaled, err := core.RescaleDeviceProperties(c.base, confirming.est.diskMean.value(), confirming.lastMetrics)
		if err != nil {
			confirming.consecutive = c.cfg.ConfirmWindows - 1
			c.cfg.logf("calib: rescale fallback failed: %v", err)
			return nil
		}
		props = rescaled
		source = "rescale"
	}
	// Cooldown and re-baseline every device regardless of the apply
	// outcome: the decision to recalibrate was made, and hammering a broken
	// swap path every window helps nobody.
	confirming.recals++
	confirming.lastRecal = c.cfg.now()
	if c.cfg.OnTransition != nil {
		c.cooled = make([]DeviceState, len(c.devs))
		for i, d := range c.devs {
			c.cooled[i] = d.state()
		}
	}
	for _, d := range c.devs {
		d.resetDetectors()
		d.cooldown = c.cfg.CooldownWindows
	}
	if c.apply != nil {
		if err := c.apply(props); err != nil {
			c.applyErrors++
			c.cfg.logf("calib: applying recalibrated properties: %v", err)
			return fmt.Errorf("calib: applying recalibrated properties: %w", err)
		}
	}
	c.base = props
	c.recals++
	c.lastRecal = confirming.lastRecal
	c.lastSource = source
	c.cfg.logf("calib: recalibrated (source=%s, recalibrations=%d)", source, c.recals)
	return nil
}

// Status reports the subsystem's externally visible state.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	age := func(t time.Time) float64 {
		if t.IsZero() {
			return -1
		}
		return now.Sub(t).Seconds()
	}
	st := Status{
		Windows:              c.windows,
		Recalibrations:       c.recals,
		ApplyErrors:          c.applyErrors,
		LastRecalibrationAge: age(c.lastRecal),
		LastFitSource:        c.lastSource,
	}
	for i, d := range c.devs {
		st.Devices = append(st.Devices, DeviceStatus{
			Device:               i,
			State:                d.state().String(),
			Windows:              d.windows,
			ConsecutiveFlags:     d.consecutive,
			CooldownRemaining:    d.cooldown,
			DriftScore:           d.driftScore,
			KSStat:               d.ksStat,
			KSThreshold:          d.ksThr,
			DiskMeanEW:           d.est.diskMean.value(),
			MissByLatency:        d.est.missByLatency(),
			Recalibrations:       d.recals,
			LastDriftAge:         age(d.lastDrift),
			LastRecalibrationAge: age(d.lastRecal),
		})
	}
	return st
}
