package core

import (
	"context"
	"fmt"
	"math/cmplx"
	"sync"

	"cosmodel/internal/numeric"
)

// batchArena is the reusable scratch of one batched mixture evaluation:
// the concatenated per-base quadrature nodes and weights, the shared
// frontend factor per node, the node offsets per base, the cell offsets
// per base, the delay factors of the delayed cells with each cell's offset
// into them, and the raw per-(group, mode, cell) sums. Pooling it drives
// the steady-state allocation count of a batched evaluation to the output
// slices alone.
type batchArena struct {
	nodes, ws, fe, pv, ef []complex128
	offs, cellOffs, eoffs []int
	sums                  []float64
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

// probeCell is one answer of a batched evaluation: the mixture CDF at
// bases[base] − delay, read from the quadrature of bases[base] by
// inverting the delayed transform e^{−s·delay}·Ĝ(s)/s there. A zero delay
// is the plain inversion at the base.
type probeCell struct {
	base  int
	delay float64
}

// plainCells holds the zero-delay cells of the first 64 bases, shared
// read-only by every batch whose bases each answer only themselves.
var plainCells = newZeroDelay(64)

// zeroDelay returns the cells of n bases that each answer only themselves:
// cell j is base j's, with zero delay.
func zeroDelay(n int) []probeCell {
	if n <= len(plainCells) {
		return plainCells[:n]
	}
	return newZeroDelay(n)
}

func newZeroDelay(n int) []probeCell {
	cs := make([]probeCell, n)
	for j := range cs {
		cs[j].base = j
	}
	return cs
}

// mixtureCDFBatch is the evaluation engine: it computes the rate-weighted
// mixture CDF for every mode in modes at every cell in cells, writing
// out[m][c] for (modes[m], cells[c]). cells is grouped by base in base
// order, and every base has at least one cell. The whole request is one
// traversal of the mixture: nodes for all bases are appended once, the
// frontend factor, each distinct backend-parse factor and each delayed
// cell's factor e^{−s·d} are computed once per node, and each group's
// per-node device factors are evaluated once and accumulated into every
// (mode, cell) of the node's base. A zero-delay cell adds the plain
// quadrature term and a delayed cell the delayed one, each a single
// complex multiply-add. Every cell is validated (walking the fallback
// chain on an invalid value at its own abscissa, without delay) and
// reduced in group order, so a cell's answer depends only on its base and
// delay, never on the other cells in the batch, and a single base with a
// zero-delay cell reproduces the per-threshold inversion bit for bit. A
// non-nil perGroup (one entry per group) receives group i's validated CDF
// at (modes[0], cells[0]): the per-device breakdown Diagnose ranks.
func (s *SystemModel) mixtureCDFBatch(ctx context.Context, modes []evalMode, bases []float64, cells []probeCell, out [][]float64, perGroup []float64) error {
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
	nc, nm := len(cells), len(modes)
	stride := nm * nc
	sums := floats(a.sums, len(s.groups)*stride)
	a.sums = sums

	inv := s.opts.inverter()
	nodes, ws := a.nodes[:0], a.ws[:0]
	offs := a.offs[:0]
	for _, b := range bases {
		offs = append(offs, len(nodes))
		if b > 0 {
			nodes, ws = inv.AppendNodes(nodes, ws, b)
		}
	}
	offs = append(offs, len(nodes))
	// cellOffs[j] is base j's first cell; eoffs[c] is delayed cell c's
	// first factor in ef, one per node of its base.
	cellOffs, eoffs, ef := a.cellOffs[:0], a.eoffs[:0], a.ef[:0]
	for c, cell := range cells {
		for len(cellOffs) <= cell.base {
			cellOffs = append(cellOffs, c)
		}
		eoffs = append(eoffs, len(ef))
		if cell.delay != 0 {
			d := complex(cell.delay, 0)
			for _, sk := range nodes[offs[cell.base]:offs[cell.base+1]] {
				ef = append(ef, cmplx.Exp(-sk*d))
			}
		}
	}
	for len(cellOffs) <= len(bases) {
		cellOffs = append(cellOffs, nc)
	}
	fe := a.fe[:0]
	if needFE {
		sq := s.frontend.Sojourn().F
		for _, sk := range nodes {
			fe = append(fe, sq(sk))
		}
	}
	pool := s.pool
	if len(s.groups) < minDevicesParallel {
		pool = nil
	}
	// The backend-parse factor of each distinct ParseBE per node, pv[c*nn+k]
	// for s.parses[c], runs as a pool task so a panicking parse transform
	// is recovered like a device factor.
	nn := len(nodes)
	pv := a.pv[:0]
	if err := pool.Do(func() error {
		for _, c := range s.parses {
			for _, sk := range nodes {
				pv = append(pv, c.dev.parse.F(sk))
			}
		}
		return nil
	}); err != nil {
		return err
	}
	a.nodes, a.ws, a.fe, a.pv, a.offs = nodes, ws, fe, pv, offs
	a.cellOffs, a.eoffs, a.ef = cellOffs, eoffs, ef
	// One pass over the mixture: each group walks all bases' nodes,
	// evaluating the device factors once per node and folding them into
	// every requested mode and every cell of the node's base. Groups write
	// disjoint sum ranges, so the fan-out is race-free and the reduction
	// below is deterministic.
	run := func(i int) error {
		gs := sums[i*stride : (i+1)*stride]
		dev := s.groups[i].dev
		prs := pv[s.groups[i].parse*nn:]
		// A read-only device contributes nothing to write modes: its write
		// factors are never evaluated and its write cells stay 0 (the
		// reduction skips them by zero weight).
		devWrite := needWrite && s.groups[i].writeWeight > 0
		for j := range bases {
			first, last := cellOffs[j], cellOffs[j+1]
			for k := offs[j]; k < offs[j+1]; k++ {
				var wa, sbe, wwa, swr complex128
				if needRead {
					wa, sbe = dev.responseNode(nodes[k], prs[k])
				}
				if devWrite {
					wwa, swr = dev.writeNode(nodes[k], prs[k])
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
					// A zero-delay cell takes the same arithmetic as
					// groupEvaluator, term for term, so its sum is
					// bit-identical to the per-threshold form the
					// fallback chain uses.
					q := v / nodes[k]
					row := gs[m*nc:]
					for c := first; c < last; c++ {
						if cells[c].delay == 0 {
							row[c] += real(ws[k] * q)
						} else {
							row[c] += real(ws[k] * (ef[eoffs[c]+k-offs[j]] * q))
						}
					}
				}
			}
		}
		return nil
	}
	if err := pool.ForEachContext(ctx, len(s.groups), run); err != nil {
		return err
	}
	// Validate and reduce in (mode, cell, group) order: the guarded
	// per-group validation, the group-order weighted sum and the final
	// clamp.
	for m, mode := range modes {
		denom := s.totalRate
		if mode.write {
			denom = s.totalWriteRate
		}
		for c, cell := range cells {
			b := bases[cell.base]
			if b <= 0 {
				out[m][c] = 0
				continue
			}
			at := b - cell.delay
			total := 0.0
			for i := range s.groups {
				weight := s.groups[i].weight
				if mode.write {
					if weight = s.groups[i].writeWeight; weight == 0 {
						continue
					}
				}
				v, err := s.groupCDF(sums[i*stride+m*nc+c], i, at, mode)
				if err != nil {
					return err
				}
				if perGroup != nil && m == 0 && c == 0 {
					perGroup[i] = v
				}
				total += weight * v
			}
			out[m][c] = numeric.Clamp01(total / denom)
		}
	}
	return nil
}
