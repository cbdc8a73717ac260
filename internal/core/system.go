package core

import (
	"fmt"
	"reflect"
	"sync"

	"cosmodel/internal/numeric"
	"cosmodel/internal/parallel"
)

// minDevicesParallel is the mixture width below which the evaluation engine
// stays sequential: fanning out two inversions costs more in goroutine
// hand-off than it saves.
const minDevicesParallel = 3

// mixGroup is one distinct device model in the system mixture with its
// summed arrival-rate weight. Duplicate *DeviceModel entries (homogeneous
// deployments pass the same model for every slot) collapse into one group,
// so the engine inverts each distinct backend transform once.
type mixGroup struct {
	dev    *DeviceModel
	weight float64
	// writeWeight is the write-class mixture weight; it is 0 for a
	// read-only device, which then contributes nothing to write-mode
	// mixtures and is skipped without evaluation.
	writeWeight float64
	// parse indexes the group's backend-parse transform in
	// SystemModel.parses.
	parse int
}

// shape is one composition of the per-device factors the shared-
// subexpression engine inverts.
type shape int

const (
	// shapeFull is the frontend-observed response Sq ∗ Wa ∗ S (Eq. 2).
	shapeFull shape = iota
	// shapeNoWTA is the frontend-observed response with the accept-waiting
	// factor dropped, Sq ∗ S — the paper's "noWTA" ablation. Evaluating it
	// from the full model's per-node factors is exact: a device built with
	// WTANone computes the identical S pipeline and a unit Wa, and
	// multiplying by the exact complex 1 changes nothing.
	shapeNoWTA
	// shapeResponse is the per-copy response Wa ∗ S: what one stripe
	// sub-read or replica sub-write experiences after the (shared)
	// frontend sojourn, the base CDF of the k-of-n order statistic.
	shapeResponse
	// shapeBackend is the backend-tier response S alone.
	shapeBackend
)

// evalMode selects the composition the engine inverts and the request
// class it is taken over: S is the read response Sbe (weighted by request
// rate) or, for write modes, the PUT replica response Swr (weighted by
// write rate, so read-only devices drop out of the mixture).
type evalMode struct {
	shape shape
	write bool
}

// SystemModel combines the frontend model with per-device backend models
// into the system-level response-latency distribution (Eqs. 2 and 3):
//
//	Sj  = Sq ∗ Wa_j ∗ Sbe_j        per device j
//	S(t) = Σ_j r_j·Sj(t) / Σ_j r_j
//
// Every prediction is a Query answered by Eval (or inverted by Quantile)
// through one shared-subexpression engine over the inverter's quadrature
// (numeric.Inverter): the frontend factor Sq(s_k) is computed once per
// inversion node and shared across the whole device mixture, each device's
// leaf transforms are evaluated once per node (DeviceModel.responseNode),
// and distinct devices are fanned across a bounded worker pool
// (Options.Workers) when the mixture is at least minDevicesParallel wide.
// Results are reduced in device order, so they are deterministic and agree
// with the sequential path exactly.
type SystemModel struct {
	frontend *FrontendModel
	devices  []*DeviceModel
	opts     Options
	pool     *parallel.Pool

	groups []mixGroup
	// parses holds the first device of each distinct ParseBE in the
	// mixture (a deployment's devices share one), so the engine evaluates
	// each backend-parse transform once per inversion node instead of once
	// per device.
	parses         []parseClass
	totalRate      float64
	totalWriteRate float64
	nodeCount      int // quadrature nodes of the configured inverter, for spans

	// Discretized frontend-sojourn distribution for multi-copy queries,
	// built lazily by frontendGrid.
	feGridOnce sync.Once
	fePoints   []float64
	feMasses   []float64
	feGridErr  error
}

// NewSystemModel assembles the system model. The frontend and at least one
// device model are required.
func NewSystemModel(fe *FrontendModel, devices []*DeviceModel, opts Options) (*SystemModel, error) {
	if fe == nil {
		return nil, fmt.Errorf("%w: frontend model required", ErrBadParams)
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("%w: at least one device model required", ErrBadParams)
	}
	s := &SystemModel{frontend: fe, devices: devices, opts: opts, pool: opts.pool()}
	seen := make(map[*DeviceModel]int, len(devices))
	for _, d := range devices {
		if d == nil {
			return nil, fmt.Errorf("%w: nil device model", ErrBadParams)
		}
		s.totalRate += d.Rate()
		s.totalWriteRate += d.WriteRate()
		if g, ok := seen[d]; ok {
			s.groups[g].weight += d.Rate()
			s.groups[g].writeWeight += d.WriteRate()
		} else {
			seen[d] = len(s.groups)
			s.groups = append(s.groups, mixGroup{dev: d, weight: d.Rate(), writeWeight: d.WriteRate(), parse: s.parseIndex(d)})
		}
	}
	if s.totalRate <= 0 {
		return nil, fmt.Errorf("%w: zero total device rate", ErrBadParams)
	}
	if opts.Observer != nil {
		nodes, _ := opts.inverter().AppendNodes(nil, nil, 1)
		s.nodeCount = len(nodes)
	}
	return s, nil
}

// parseClass is one distinct backend-parse distribution of a mixture: the
// first device carrying it, and whether its dynamic type compares with ==
// without panicking.
type parseClass struct {
	dev *DeviceModel
	cmp bool
}

// parseIndex returns the index in s.parses of d's backend-parse class,
// appending a new class when no device seen so far has an equal ParseBE.
// Equal values have transforms that agree bit for bit. A value whose type
// holds an interface, slice, map or func (where == may panic) is a class
// of its own.
func (s *SystemModel) parseIndex(d *DeviceModel) int {
	p := d.props.ParseBE
	t := reflect.TypeOf(p)
	for i, c := range s.parses {
		if q := c.dev.props.ParseBE; c.cmp && reflect.TypeOf(q) == t && q == p {
			return i
		}
	}
	s.parses = append(s.parses, parseClass{dev: d, cmp: t != nil && plainComparable(t)})
	return len(s.parses) - 1
}

// plainComparable reports whether == on values of type t never panics:
// t is comparable and holds no interface, whose dynamic value might not be.
func plainComparable(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Interface:
		return false
	case reflect.Array:
		return plainComparable(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !plainComparable(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return t.Comparable()
	}
}

// beginSpan opens an observer span for one top-level evaluation of this
// model; see Options.Observer.
func (s *SystemModel) beginSpan(op string) func(probes int, err error) {
	return s.opts.span(op, len(s.groups), s.nodeCount)
}

// Frontend returns the frontend model.
func (s *SystemModel) Frontend() *FrontendModel { return s.frontend }

// Devices returns the device models.
func (s *SystemModel) Devices() []*DeviceModel { return s.devices }

// groupEvaluator builds the raw (unclamped) per-group CDF evaluator at t
// for one inverter, composing the per-device factors selected by mode. The
// batch engine shares its quadrature across thresholds itself; this
// per-threshold form serves the fallback chain.
func (s *SystemModel) groupEvaluator(inv numeric.Inverter, t float64, mode evalMode) func(i int) float64 {
	// 32 covers every built-in quadrature (Euler 27, Talbot 32,
	// Gaver-Stehfest 14) without append regrowth.
	nodes, ws := inv.AppendNodes(make([]complex128, 0, 32), make([]complex128, 0, 32), t)
	var fe []complex128
	if mode.shape == shapeFull || mode.shape == shapeNoWTA {
		// The frontend sojourn factor is identical across the mixture:
		// evaluate it once per inversion node.
		sq := s.frontend.Sojourn().F
		fe = make([]complex128, len(nodes))
		for k, sk := range nodes {
			fe[k] = sq(sk)
		}
	}
	return func(i int) float64 {
		dev := s.groups[i].dev
		var sum float64
		for k, sk := range nodes {
			pr := dev.parse.F(sk)
			var wa, resp complex128
			if mode.write {
				wa, resp = dev.writeNode(sk, pr)
			} else {
				wa, resp = dev.responseNode(sk, pr)
			}
			sum += real(ws[k] * (nodeValue(mode.shape, fe, k, wa, resp) / sk))
		}
		return sum
	}
}

// nodeValue composes the per-device node factors (wa, sbe — or the write
// pair wa, swr, which shares the same shapes) and the shared frontend
// factor fe[k] into the transform value sh selects.
func nodeValue(sh shape, fe []complex128, k int, wa, sbe complex128) complex128 {
	switch sh {
	case shapeFull:
		return fe[k] * wa * sbe
	case shapeNoWTA:
		return fe[k] * sbe
	case shapeResponse:
		return wa * sbe
	default:
		return sbe
	}
}

// groupCDF validates a raw per-group inversion value through validCDF,
// re-evaluating group i with each fallback inverter.
func (s *SystemModel) groupCDF(v float64, i int, t float64, mode evalMode) (float64, error) {
	return validCDF(s.opts, v, t, func(inv numeric.Inverter) float64 {
		return s.groupEvaluator(inv, t, mode)(i)
	})
}

// validCDF validates v, the primary inverter's raw CDF value at t, and
// walks opts' fallback inverter chain on an invalid one, raw evaluating the
// same CDF with a given inverter. A recovered value fires
// Options.OnFallback; exhaustion returns a *numeric.InversionError.
func validCDF(opts Options, v, t float64, raw func(numeric.Inverter) float64) (float64, error) {
	reason := numeric.CheckCDF(v)
	if reason == "" {
		return numeric.Clamp01(v), nil
	}
	primary := opts.inverter().Name()
	tried := []string{primary}
	for _, fb := range opts.fallbacks() {
		if fb == nil || fb.Name() == primary {
			continue
		}
		tried = append(tried, fb.Name())
		fv := raw(fb)
		if numeric.CheckCDF(fv) == "" {
			if cb := opts.OnFallback; cb != nil {
				cb(primary, fb.Name())
			}
			return numeric.Clamp01(fv), nil
		}
		v = fv
	}
	return 0, &numeric.InversionError{T: t, Value: v, Reason: reason, Tried: tried}
}

// MeanResponse returns the rate-weighted mean response latency, from the
// component means of each device's Sq ∗ Wa ∗ Sbe.
func (s *SystemModel) MeanResponse() float64 {
	sq := s.frontend.Sojourn().Mean
	total := 0.0
	for _, d := range s.devices {
		total += d.Rate() * (sq + d.meanWa + d.meanSbe)
	}
	return total / s.totalRate
}

// meanWriteResponse returns the write-rate-weighted mean frontend-observed
// PUT replica response latency (Sq ∗ Wa ∗ Swr), or 0 when the mixture
// carries no write traffic.
func (s *SystemModel) meanWriteResponse() float64 {
	if s.totalWriteRate <= 0 {
		return 0
	}
	sq := s.frontend.Sojourn().Mean
	total := 0.0
	for _, g := range s.groups {
		if g.writeWeight > 0 {
			total += g.writeWeight * (sq + g.dev.meanWa + g.dev.meanSwr)
		}
	}
	return total / s.totalWriteRate
}
