package core

import (
	"context"
	"fmt"
	"sync"

	"cosmodel/internal/numeric"
)

// batchArena is the reusable scratch of one batched mixture evaluation:
// the concatenated per-threshold quadrature nodes and weights, the shared
// frontend factor per node, the node offsets per threshold and the raw
// per-(group, mode, threshold) sums. Pooling it drives the steady-state
// allocation count of a batched evaluation to the output slices alone.
type batchArena struct {
	nodes, ws, fe []complex128
	offs          []int
	sums          []float64
}

var batchArenaPool = sync.Pool{New: func() any { return new(batchArena) }}

// floats returns a zeroed float slice of length n backed by buf's capacity
// when possible.
func floats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// mixtureCDFBatch is the evaluation engine: it computes the rate-weighted
// mixture CDF for every mode in modes at every threshold in ts, writing
// out[m][j] for (modes[m], ts[j]). With a node-exposing inverter the whole
// request is one traversal of the mixture: nodes for all thresholds are
// appended once, the frontend factor is computed once per node, and each
// group's per-node device factors are evaluated once and accumulated into
// every (mode, threshold) cell. An opaque inverter fills the same cells by
// inverting each group's composed transform. Either way every cell is
// validated (walking the fallback chain on an invalid value) and reduced
// in group order, so a threshold's answer does not depend on the other
// thresholds in the batch, and a single threshold reproduces the
// per-threshold inversion bit for bit.
func (s *SystemModel) mixtureCDFBatch(ctx context.Context, modes []evalMode, ts []float64, out [][]float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	needFE, needRead, needWrite := false, false, false
	for _, mode := range modes {
		if mode.shape == shapeFull || mode.shape == shapeNoWTA {
			needFE = true
		}
		if mode.write {
			needWrite = true
		} else {
			needRead = true
		}
	}
	if needWrite && s.totalWriteRate <= 0 {
		return fmt.Errorf("%w: no write traffic in the device mixture", ErrBadParams)
	}
	a := batchArenaPool.Get().(*batchArena)
	defer batchArenaPool.Put(a)
	nt, nm := len(ts), len(modes)
	stride := nm * nt
	sums := floats(a.sums, len(s.groups)*stride)
	a.sums = sums

	var run func(i int) error
	if ni, ok := s.opts.inverter().(numeric.NodeInverter); ok {
		nodes, ws := a.nodes[:0], a.ws[:0]
		offs := a.offs[:0]
		for _, t := range ts {
			offs = append(offs, len(nodes))
			if t > 0 {
				nodes, ws = ni.AppendNodes(nodes, ws, t)
			}
		}
		offs = append(offs, len(nodes))
		fe := a.fe[:0]
		if needFE {
			sq := s.frontend.Sojourn().F
			for _, sk := range nodes {
				fe = append(fe, sq(sk))
			}
		}
		a.nodes, a.ws, a.fe, a.offs = nodes, ws, fe, offs
		// One pass over the mixture: each group walks all thresholds'
		// nodes, evaluating the device factors once per node and folding
		// them into every requested mode. Groups write disjoint sum
		// ranges, so the fan-out is race-free and the reduction below is
		// deterministic.
		run = func(i int) error {
			gs := sums[i*stride : (i+1)*stride]
			dev := s.groups[i].dev
			// A read-only device contributes nothing to write modes: its
			// write factors are never evaluated and its write cells stay
			// 0 (the reduction skips them by zero weight).
			devWrite := needWrite && s.groups[i].writeWeight > 0
			for j := range ts {
				for k := offs[j]; k < offs[j+1]; k++ {
					var wa, sbe, wwa, swr complex128
					if needRead {
						wa, sbe = dev.responseNode(nodes[k])
					}
					if devWrite {
						wwa, swr = dev.writeNode(nodes[k])
					}
					for m, mode := range modes {
						var v complex128
						if mode.write {
							if !devWrite {
								continue
							}
							v = nodeValue(mode.shape, fe, k, wwa, swr)
						} else {
							v = nodeValue(mode.shape, fe, k, wa, sbe)
						}
						// The same arithmetic as groupEvaluator, term for
						// term, so a cell's sum is bit-identical to the
						// per-threshold form the fallback chain uses.
						gs[m*nt+j] += real(ws[k] * (v / nodes[k]))
					}
				}
			}
			return nil
		}
	} else {
		// Opaque custom inverter: no quadrature to share — invert each
		// group's composed transform per (mode, threshold).
		inv := s.opts.inverter()
		run = func(i int) error {
			gs := sums[i*stride : (i+1)*stride]
			for m, mode := range modes {
				if mode.write && s.groups[i].writeWeight == 0 {
					continue
				}
				for j, t := range ts {
					if t > 0 {
						gs[m*nt+j] = s.groupEvaluator(inv, t, mode)(i)
					}
				}
			}
			return nil
		}
	}
	pool := s.pool
	if len(s.groups) < minDevicesParallel {
		pool = nil
	}
	if err := pool.ForEachContext(ctx, len(s.groups), run); err != nil {
		return err
	}
	// Validate and reduce in (mode, threshold, group) order: the guarded
	// per-group validation, the group-order weighted sum and the final
	// clamp.
	for m, mode := range modes {
		denom := s.totalRate
		if mode.write {
			denom = s.totalWriteRate
		}
		for j, t := range ts {
			if t <= 0 {
				out[m][j] = 0
				continue
			}
			total := 0.0
			for i := range s.groups {
				weight := s.groups[i].weight
				if mode.write {
					if weight = s.groups[i].writeWeight; weight == 0 {
						continue
					}
				}
				v, err := s.groupCDF(sums[i*stride+m*nt+j], i, t, mode)
				if err != nil {
					return err
				}
				total += weight * v
			}
			out[m][j] = numeric.Clamp01(total / denom)
		}
	}
	return nil
}
