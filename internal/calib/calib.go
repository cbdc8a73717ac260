// Package calib keeps a served analytic model honest: it watches the same
// per-device observation stream the prediction engine consumes, maintains
// streaming estimates of the quantities the model was calibrated from
// (per-operation disk service-time distributions, cache miss ratios, overall
// mean disk service time), detects when the live system has drifted away from
// the calibration (change detection on means, two-sample goodness-of-fit on
// shapes), and — once drift is confirmed — re-solves the paper's §IV-B
// calibration for fresh core.DeviceProperties and swaps them into the serving
// engine atomically.
//
// The subsystem deliberately separates three concerns:
//
//   - estimator: per-device exponentially-weighted moments and windowed raw
//     sample rings (estimator.go);
//   - detectors: two-sided Page–Hinkley on the windowed overall disk service
//     mean, CUSUM on the data-read miss ratio, and a Kolmogorov–Smirnov check
//     of recent raw samples against the currently-served family
//     (detector.go);
//   - controller: the per-device stable → drifting → recalibrating state
//     machine with confirmation and cooldown, and the recalibration itself
//     (controller.go).
//
// A mean-only drift is already absorbed online by the model (§IV-B re-solves
// service times from the observed mean every window), so the detectors are
// tuned to catch what that tracking cannot: distribution-shape changes and
// cache-behaviour regime shifts that require refitting, not rescaling.
package calib

import (
	"errors"
	"fmt"
	"time"

	"cosmodel/internal/core"
)

// Errors returned by the calibration subsystem.
var (
	// ErrBadConfig reports an invalid calibration configuration.
	ErrBadConfig = errors.New("calib: invalid configuration")
	// ErrBadWindow reports an invalid window-stats payload.
	ErrBadWindow = errors.New("calib: invalid window stats")
)

// Config tunes the calibration controller. Start from DefaultConfig; the
// zero value is invalid.
type Config struct {
	// Devices is the number of storage devices tracked.
	Devices int

	// EWAlpha is the weight of the newest window in the exponentially
	// weighted moment trackers (0 < alpha <= 1).
	EWAlpha float64

	// SampleWindows bounds the per-class raw-sample buffer to the most
	// recent SampleWindows windows — the population the K-S check and any
	// refit draw from.
	SampleWindows int

	// PHDelta and PHLambda parameterize the two-sided Page–Hinkley test on
	// the normalized windowed disk-service mean (x = b/b_ref): delta is the
	// drift tolerated per window, lambda the cumulative deviation that
	// flags.
	PHDelta  float64
	PHLambda float64

	// CUSUMSlack and CUSUMThreshold parameterize the two-sided CUSUM on the
	// data-read cache miss ratio: per-window deviations below the slack are
	// absorbed; a cumulative excess beyond the threshold flags.
	CUSUMSlack     float64
	CUSUMThreshold float64

	// KSFactor scales the Kolmogorov–Smirnov flag threshold
	// KSFactor/sqrt(n) for n buffered samples; MinKSSamples gates the test
	// until the buffer is informative. The check is shape-only: the served
	// family is rescaled to the samples' mean before comparing, so drift
	// the online mean-tracking already absorbs does not flag.
	KSFactor     float64
	MinKSSamples int

	// ConfirmWindows is the number of consecutive flagged windows required
	// before drift is confirmed and a recalibration fires (debounce).
	ConfirmWindows int
	// CooldownWindows suppresses detection for this many windows after a
	// recalibration while the estimators re-baseline on the new regime.
	CooldownWindows int

	// MinRefitSamples is the per-class pooled post-drift sample count
	// needed to refit that class's distribution from data; classes with
	// fewer samples keep their current distribution, and if no class
	// qualifies the controller falls back to the §IV-B rescale
	// (core.RescaleDeviceProperties).
	MinRefitSamples int

	// MissThreshold is the latency threshold (seconds) separating memory
	// from disk operations when estimating miss ratios from raw operation
	// latencies (the paper's §IV-B method); 0 means
	// core.DefaultMissThreshold.
	MissThreshold float64

	// OnTransition, when non-nil, is called once per device whose drift
	// state changed during a Controller.Observe call (a recalibration
	// moves every device into cooldown at once, so one Observe may report
	// several transitions). It runs after the controller's lock is
	// released, so it may call back into the controller; it must be safe
	// for concurrent use. Observability layers hook it to count
	// stable/drifting/recalibrating transitions.
	OnTransition func(device int, from, to DeviceState)

	// Now supplies wall-clock time; nil means time.Now.
	Now func() time.Time
	// Logf receives diagnostic lines; nil discards them.
	Logf func(format string, args ...any)
}

// DefaultConfig returns a calibration configuration for the given number of
// devices, tuned for multi-second observation windows: detection within a
// few windows of a genuine regime shift, no flags on a stationary run.
func DefaultConfig(devices int) Config {
	return Config{
		Devices:         devices,
		EWAlpha:         0.3,
		SampleWindows:   8,
		PHDelta:         0.03,
		PHLambda:        0.8,
		CUSUMSlack:      0.04,
		CUSUMThreshold:  0.15,
		KSFactor:        2.2,
		MinKSSamples:    150,
		ConfirmWindows:  2,
		CooldownWindows: 3,
		MinRefitSamples: 100,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Devices < 1:
		return fmt.Errorf("%w: need at least one device", ErrBadConfig)
	case c.EWAlpha <= 0 || c.EWAlpha > 1:
		return fmt.Errorf("%w: EW alpha %v outside (0,1]", ErrBadConfig, c.EWAlpha)
	case c.SampleWindows < 1:
		return fmt.Errorf("%w: need at least one sample window", ErrBadConfig)
	case c.PHDelta < 0 || c.PHLambda <= 0:
		return fmt.Errorf("%w: Page–Hinkley delta %v / lambda %v", ErrBadConfig, c.PHDelta, c.PHLambda)
	case c.CUSUMSlack < 0 || c.CUSUMThreshold <= 0:
		return fmt.Errorf("%w: CUSUM slack %v / threshold %v", ErrBadConfig, c.CUSUMSlack, c.CUSUMThreshold)
	case c.KSFactor <= 0 || c.MinKSSamples < 2:
		return fmt.Errorf("%w: K-S factor %v / min samples %d", ErrBadConfig, c.KSFactor, c.MinKSSamples)
	case c.ConfirmWindows < 1:
		return fmt.Errorf("%w: confirm windows %d", ErrBadConfig, c.ConfirmWindows)
	case c.CooldownWindows < 0:
		return fmt.Errorf("%w: cooldown windows %d", ErrBadConfig, c.CooldownWindows)
	case c.MinRefitSamples < 2:
		return fmt.Errorf("%w: min refit samples %d", ErrBadConfig, c.MinRefitSamples)
	case c.MissThreshold < 0:
		return fmt.Errorf("%w: miss threshold %v", ErrBadConfig, c.MissThreshold)
	}
	return nil
}

func (c Config) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c Config) missThreshold() float64 {
	if c.MissThreshold > 0 {
		return c.MissThreshold
	}
	return core.DefaultMissThreshold
}

// DeviceState is the drift state of one device.
type DeviceState int

const (
	// Stable: no detector flags outstanding.
	Stable DeviceState = iota
	// Drifting: flagged, not yet confirmed (debouncing).
	Drifting
	// Recalibrating: a recalibration just fired on this device's evidence;
	// detection is suppressed while estimators re-baseline (cooldown).
	Recalibrating
)

// String returns the state name.
func (s DeviceState) String() string {
	switch s {
	case Stable:
		return "stable"
	case Drifting:
		return "drifting"
	case Recalibrating:
		return "recalibrating"
	}
	return fmt.Sprintf("DeviceState(%d)", int(s))
}

// WindowStats is one device's measurements for one observation window — the
// calibration subsystem's entire input. All sample slices are optional.
type WindowStats struct {
	// Device identifies the storage device, 0 <= Device < Config.Devices.
	Device int
	// Interval is the window span in seconds.
	Interval float64
	// Metrics is the device's current windowed online metrics (rate, miss
	// ratios, observed mean disk service time). Used as the operating point
	// for the §IV-B rescale fallback; may be the zero value for an idle
	// device.
	Metrics core.OnlineMetrics
	// Index, Meta, Data are raw disk service-time samples (seconds) per
	// operation class observed in the window.
	Index, Meta, Data []float64
	// OpLatencies are raw operation latencies covering memory and disk
	// alike; when present the estimator derives a live miss ratio from them
	// by the paper's latency-threshold method.
	OpLatencies []float64
}

// Validate checks the window stats against the deployment size.
func (w WindowStats) Validate(devices int) error {
	if w.Device < 0 || w.Device >= devices {
		return fmt.Errorf("%w: device %d outside [0,%d)", ErrBadWindow, w.Device, devices)
	}
	if w.Interval <= 0 {
		return fmt.Errorf("%w: interval %v must be positive", ErrBadWindow, w.Interval)
	}
	for _, set := range [][]float64{w.Index, w.Meta, w.Data, w.OpLatencies} {
		for _, v := range set {
			if !(v >= 0) || v != v {
				return fmt.Errorf("%w: negative or NaN sample %v", ErrBadWindow, v)
			}
		}
	}
	return nil
}

// DeviceStatus is the externally visible calibration state of one device.
type DeviceStatus struct {
	Device  int    `json:"device"`
	State   string `json:"state"`
	Windows uint64 `json:"windowsObserved"`
	// ConsecutiveFlags is the current debounce count; a recalibration fires
	// when it reaches ConfirmWindows.
	ConsecutiveFlags  int `json:"consecutiveFlags"`
	CooldownRemaining int `json:"cooldownRemaining"`
	// DriftScore is the strongest detector statistic normalized by its
	// threshold: >= 1 means the last window flagged.
	DriftScore float64 `json:"driftScore"`
	// KSStat and KSThreshold are the last shape check's statistic and flag
	// level (0 until the sample buffer reaches MinKSSamples).
	KSStat      float64 `json:"ksStat"`
	KSThreshold float64 `json:"ksThreshold"`
	// DiskMeanEW is the exponentially weighted overall mean disk service
	// time (seconds).
	DiskMeanEW float64 `json:"diskMeanEW"`
	// MissByLatency is the EW miss ratio estimated from raw operation
	// latencies by the threshold method; -1 until latencies are supplied.
	MissByLatency  float64 `json:"missByLatency"`
	Recalibrations uint64  `json:"recalibrations"`
	// LastDriftAge and LastRecalibrationAge are seconds since the last
	// flagged window / recalibration on this device; -1 means never.
	LastDriftAge         float64 `json:"lastDriftAgeSeconds"`
	LastRecalibrationAge float64 `json:"lastRecalibrationAgeSeconds"`
}

// Status is the externally visible state of the whole subsystem.
type Status struct {
	Windows        uint64 `json:"windowsObserved"`
	Recalibrations uint64 `json:"recalibrations"`
	ApplyErrors    uint64 `json:"applyErrors"`
	// LastRecalibrationAge is seconds since the last successful
	// recalibration; -1 means never.
	LastRecalibrationAge float64 `json:"lastRecalibrationAgeSeconds"`
	// LastFitSource reports how the last recalibration derived its
	// properties: "refit" (per-class Gamma refit from post-drift samples)
	// or "rescale" (§IV-B rescale); empty before any.
	LastFitSource string         `json:"lastFitSource"`
	Devices       []DeviceStatus `json:"devices"`
}
