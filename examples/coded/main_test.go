package main

import (
	"context"
	"math"
	"testing"

	"cosmodel"
)

// TestSchemeOrdering smoke-tests the example's computation: the p99s of the
// compared redundancy schemes must land in the order the order-statistic
// model guarantees at this operating point.
func TestSchemeOrdering(t *testing.T) {
	q := func(spec cosmodel.CodedSpec) float64 {
		v, err := p99(spec, parentRate)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if !(v > 0) || math.IsInf(v, 0) {
			t.Fatalf("%+v: p99 %v not positive finite", spec, v)
		}
		return v
	}

	plain := q(cosmodel.CodedSpec{N: 1, K: 1})
	repl := q(cosmodel.CodedSpec{N: 3, K: 1})
	fastest6 := q(cosmodel.CodedSpec{N: 6, K: 1})
	ec := q(cosmodel.CodedSpec{N: 6, K: 4})
	barrier := q(cosmodel.CodedSpec{N: 6, K: 6})

	// Racing three replicas beats the single read at this (modest) load.
	if repl >= plain {
		t.Errorf("replication p99 %.4f not below single-replica %.4f", repl, plain)
	}
	// Within a stripe width, a larger quorum can only be slower.
	if fastest6 > ec+1e-12 || ec > barrier+1e-12 {
		t.Errorf("quorum ordering violated: 1-of-6 %.4f, 4-of-6 %.4f, 6-of-6 %.4f",
			fastest6, ec, barrier)
	}

	// Hedging endpoints: delay zero is full issue; a huge delay pushes the
	// reserves past any mass and degrades to the k-of-k barrier.
	zero := q(cosmodel.CodedSpec{N: 6, K: 4, Hedge: true, HedgeDelay: 0})
	if math.Abs(zero-ec) > 1e-9 {
		t.Errorf("hedge delay 0 p99 %.6f differs from full issue %.6f", zero, ec)
	}
	// Compare on one system so both see identical device load (the example
	// helper provisions for the worst-case fan-out of n sub-reads).
	sys, err := system(cosmodel.CodedSpec{N: 6, K: 4}, parentRate)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := sys.Quantile(context.Background(),
		cosmodel.Query{Spec: cosmodel.CodedSpec{N: 6, K: 4, Hedge: true, HedgeDelay: 1e6}}, 0.99, 0)
	if err != nil {
		t.Fatal(err)
	}
	kofk, err := sys.Quantile(context.Background(), cosmodel.Query{Spec: cosmodel.CodedSpec{N: 4, K: 4}}, 0.99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(huge-kofk) > 1e-6 {
		t.Errorf("hedge delay ->inf p99 %.6f differs from 4-of-4 barrier %.6f", huge, kofk)
	}
}

// TestSingleReplicaMatchesPlainQuantile checks the example's degenerate
// scheme against the plain model: with n = k = 1 the coded path must agree
// with SystemModel.Quantile.
func TestSingleReplicaMatchesPlainQuantile(t *testing.T) {
	spec := cosmodel.CodedSpec{N: 1, K: 1}
	sys, err := system(spec, parentRate)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := sys.Quantile(context.Background(), cosmodel.Query{Spec: spec}, 0.99, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Quantile(context.Background(), cosmodel.Query{}, 0.99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coded-plain) > 1e-9*math.Max(1, plain) {
		t.Errorf("n=1 coded p99 %.9f differs from plain p99 %.9f", coded, plain)
	}
}
