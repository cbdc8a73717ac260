// Package coscode combines per-read response-latency CDFs into the
// latency CDF of erasure-coded and hedged reads.
//
// A coded GET reads an (n,k) stripe: n chunk sub-reads are issued to
// distinct devices and the request completes when the k-th-fastest
// sub-read responds, so its latency is the k-th order statistic of the n
// per-read latencies. With independent sub-reads the completion count by
// time t is Poisson-binomial over the per-read completion probabilities,
// and the coded CDF is its upper tail P(#done >= k) — evaluated here by a
// stable O(n·k) dynamic program rather than the binomial summation, so
// heterogeneous per-read CDFs (mixed device populations, hedged laggards)
// cost nothing extra.
//
// The hedged variant issues only k primaries at arrival and the remaining
// n-k reserves after a delay Δ; a reserve's completion probability at time
// t is therefore the base CDF at t-Δ. Δ=0 degenerates to the plain (n,k)
// fork-join read and Δ→∞ to reading exactly the k primaries.
package coscode

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadSpec reports an invalid coded-read specification.
var ErrBadSpec = errors.New("coscode: invalid coded-read spec")

// Spec describes a k-of-n coded read, optionally hedged.
type Spec struct {
	// N is the stripe width: the number of devices holding a chunk of the
	// object. N=1 degenerates to a plain read.
	N int
	// K is the number of sub-reads that must complete before the request
	// can respond. K=1 is a fastest-of-N speculative read (replication),
	// K=N a full fork-join barrier.
	K int
	// Hedge, when true, issues only K primary sub-reads at arrival and
	// the remaining N-K reserves HedgeDelay seconds later (if the request
	// is still incomplete).
	Hedge bool
	// HedgeDelay is the reserve issue delay Δ in seconds. +Inf means the
	// reserves are never issued (read exactly the K primaries).
	HedgeDelay float64
}

// Validate checks the specification.
func (sp Spec) Validate() error {
	switch {
	case sp.N < 1:
		return fmt.Errorf("%w: n=%d must be >= 1", ErrBadSpec, sp.N)
	case sp.K < 1 || sp.K > sp.N:
		return fmt.Errorf("%w: k=%d outside [1,%d]", ErrBadSpec, sp.K, sp.N)
	case sp.Hedge && (math.IsNaN(sp.HedgeDelay) || sp.HedgeDelay < 0):
		return fmt.Errorf("%w: hedge delay %v must be >= 0", ErrBadSpec, sp.HedgeDelay)
	case !sp.Hedge && sp.HedgeDelay != 0:
		return fmt.Errorf("%w: hedge delay %v without hedging", ErrBadSpec, sp.HedgeDelay)
	}
	return nil
}

// Primaries returns the number of sub-reads issued at arrival time.
func (sp Spec) Primaries() int {
	if sp.Hedge {
		return sp.K
	}
	return sp.N
}

// String returns a compact description, e.g. "(6,4)" or "(3,1)+hedge@5ms".
func (sp Spec) String() string {
	if !sp.Hedge {
		return fmt.Sprintf("(%d,%d)", sp.N, sp.K)
	}
	return fmt.Sprintf("(%d,%d)+hedge@%gs", sp.N, sp.K, sp.HedgeDelay)
}

// KOfN returns P(at least k of the reads are done), where probs[i] is the
// completion probability of read i and the reads are independent. Inputs
// are clamped to [0,1] (NaN counts as 0). k <= 0 returns 1 and
// k > len(probs) returns 0; a single-read vector passes probs[0] through
// exactly, so degenerate stripes cost no floating-point error.
func KOfN(probs []float64, k int) float64 {
	n := len(probs)
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	if n == 1 {
		return clamp01(probs[0])
	}
	// c[j] = P(min(#done, k) == j) over the reads folded in so far; the
	// top cell absorbs "k or more". Updating j downward reads the
	// not-yet-updated c[j-1], which is exactly the previous iteration.
	var row [9]float64 // K ≤ 8 keeps the row on the stack
	c := append(row[:0], make([]float64, k+1)...)
	c[0] = 1
	for _, p := range probs {
		p = clamp01(p)
		c[k] += c[k-1] * p
		for j := k - 1; j >= 1; j-- {
			c[j] = c[j]*(1-p) + c[j-1]*p
		}
		c[0] *= 1 - p
	}
	return clamp01(c[k])
}

// CDF evaluates the coded-read completion CDF at t: the probability that
// at least K of the N sub-reads have responded, with primaries issued at
// time 0 and reserves at HedgeDelay. base is the per-read response CDF; it
// is consulted at t for the primaries and at t-HedgeDelay for the
// reserves (never for t-Δ <= 0 or Δ = +Inf, where a reserve cannot have
// completed).
func CDF(sp Spec, base func(float64) (float64, error), t float64) (float64, error) {
	if err := sp.Validate(); err != nil {
		return 0, err
	}
	if base == nil {
		return 0, fmt.Errorf("%w: nil base CDF", ErrBadSpec)
	}
	if t <= 0 {
		return 0, nil
	}
	prim := sp.Primaries()
	p1, err := base(t)
	if err != nil {
		return 0, err
	}
	var p2 float64
	if prim < sp.N && !math.IsInf(sp.HedgeDelay, 1) {
		if y := t - sp.HedgeDelay; y > 0 {
			if p2, err = base(y); err != nil {
				return 0, err
			}
		}
	}
	var buf [8]float64 // N ≤ 8 keeps the stripe on the stack
	probs := buf[:0]
	for i := 0; i < prim; i++ {
		probs = append(probs, p1)
	}
	for i := prim; i < sp.N; i++ {
		probs = append(probs, p2)
	}
	return KOfN(probs, sp.K), nil
}

func clamp01(v float64) float64 {
	switch {
	case math.IsNaN(v) || v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}
