package calib

import (
	"fmt"
	"math/rand"
	"testing"

	"cosmodel/internal/core"
	"cosmodel/internal/dist"
)

// TestOnTransitionFiresPerDevice drives device 0 through the full
// stable → drifting → recalibrating cycle and checks that every state
// change — including the cross-device cooldown a recalibration imposes —
// surfaces exactly once through Config.OnTransition.
func TestOnTransitionFiresPerDevice(t *testing.T) {
	props := baseProps()
	type tr struct {
		device   int
		from, to DeviceState
	}
	var seen []tr
	cfg := DefaultConfig(2)
	cfg.OnTransition = func(device int, from, to DeviceState) {
		seen = append(seen, tr{device, from, to})
	}
	c, err := New(cfg, props, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for w := 0; w < 20; w++ {
		for dev := 0; dev < 2; dev++ {
			if _, err := c.Observe(windowFrom(dev, props.IndexDisk, props.MetaDisk, props.DataDisk, 0.30, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(seen) != 0 {
		t.Fatalf("stationary warmup fired transitions: %v", seen)
	}

	// Shift only device 0; device 1 stays on the served regime until the
	// recalibration cools every device down.
	slow := dist.NewGammaMeanSCV(16e-3, 1.6)
	recalibrated := false
	for w := 0; w < 10 && !recalibrated; w++ {
		var err error
		recalibrated, err = c.Observe(windowFrom(0, props.IndexDisk, props.MetaDisk, slow, 0.45, rng))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Observe(windowFrom(1, props.IndexDisk, props.MetaDisk, props.DataDisk, 0.30, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if !recalibrated {
		t.Fatal("drift never confirmed")
	}
	want := map[string]bool{
		"0:stable->drifting":        false,
		"0:drifting->recalibrating": false,
		"1:stable->recalibrating":   false, // cross-device cooldown
	}
	for _, s := range seen {
		key := fmt.Sprintf("%d:%s->%s", s.device, s.from, s.to)
		if _, ok := want[key]; ok {
			want[key] = true
		}
	}
	for key, hit := range want {
		if !hit {
			t.Errorf("transition %s never fired (saw %v)", key, seen)
		}
	}

	// Cooldown expiry returns the devices to stable, again via the hook.
	before := len(seen)
	for w := 0; w <= cfg.CooldownWindows+1; w++ {
		for dev := 0; dev < 2; dev++ {
			if _, err := c.Observe(windowFrom(dev, props.IndexDisk, props.MetaDisk, slow, 0.45, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	backToStable := 0
	for _, s := range seen[before:] {
		if s.from == Recalibrating && s.to != Recalibrating {
			backToStable++
		}
	}
	if backToStable < 2 {
		t.Errorf("cooldown expiry transitions = %d, want both devices (saw %v)", backToStable, seen[before:])
	}
}

// TestOnTransitionMatchesFullScan pins Observe's transition reporting
// against a full before/after scan of every device's state: over a
// random 64-device sequence of stationary windows, regime shifts,
// recalibrations (some failing to apply) and cooldowns, each Observe call
// reports exactly the devices whose state differs between Status before
// and after the call, in device order, with the same from and to states.
func TestOnTransitionMatchesFullScan(t *testing.T) {
	const devices = 64
	props := baseProps()
	slow := dist.NewGammaMeanSCV(16e-3, 1.6)
	for _, tc := range []struct{ confirm, cooldown int }{{1, 1}, {2, 3}, {3, 0}} {
		rng := rand.New(rand.NewSource(int64(31 * tc.confirm)))
		type tr struct {
			device   int
			from, to string
		}
		var got []tr
		cfg := DefaultConfig(devices)
		cfg.ConfirmWindows, cfg.CooldownWindows = tc.confirm, tc.cooldown
		cfg.OnTransition = func(device int, from, to DeviceState) {
			got = append(got, tr{device, from.String(), to.String()})
		}
		apply := func(core.DeviceProperties) error {
			if rng.Intn(4) == 0 {
				return fmt.Errorf("swap refused")
			}
			return nil
		}
		c, err := New(cfg, props, apply)
		if err != nil {
			t.Fatal(err)
		}
		drifted := make([]bool, devices)
		recals, moves := 0, 0
		for step := 0; step < 2500; step++ {
			if step%400 == 0 {
				for d := range drifted {
					drifted[d] = rng.Intn(3) == 0
				}
			}
			dev := rng.Intn(devices)
			ws := windowFrom(dev, props.IndexDisk, props.MetaDisk, props.DataDisk, 0.30, rng)
			if drifted[dev] {
				ws = windowFrom(dev, props.IndexDisk, props.MetaDisk, slow, 0.45, rng)
			}
			before := c.Status()
			got = got[:0]
			fired, _ := c.Observe(ws)
			after := c.Status()
			var want []tr
			for i := range after.Devices {
				if from, to := before.Devices[i].State, after.Devices[i].State; from != to {
					want = append(want, tr{i, from, to})
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("confirm=%d cooldown=%d step %d (device %d): hook saw %v, full scan %v",
					tc.confirm, tc.cooldown, step, dev, got, want)
			}
			if fired {
				recals++
			}
			moves += len(want)
		}
		if recals == 0 || moves < 2*devices {
			t.Fatalf("confirm=%d cooldown=%d: sequence too tame (%d recalibrations, %d transitions)",
				tc.confirm, tc.cooldown, recals, moves)
		}
	}
}

// TestObserveSteadyStateAllocs pins a steady-state Observe with the
// transition hook set at zero allocations, for windows shaped like a
// churning feed (8 raw samples per class, below the K-S sample floor): the
// transition check looks at the observed device alone, and the sample
// buffers are rings over reused storage.
func TestObserveSteadyStateAllocs(t *testing.T) {
	const devices = 64
	props := baseProps()
	cfg := DefaultConfig(devices)
	transitions := 0
	cfg.OnTransition = func(int, DeviceState, DeviceState) { transitions++ }
	c, err := New(cfg, props, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pool := make([]WindowStats, 4*devices)
	for i := range pool {
		ws := windowFrom(i%devices, props.IndexDisk, props.MetaDisk, props.DataDisk, 0.30, rng)
		ws.Index, ws.Meta, ws.Data = ws.Index[:8], ws.Meta[:8], ws.Data[:8]
		pool[i] = ws
	}
	next := 0
	observe := func() {
		if _, err := c.Observe(pool[next%len(pool)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 4*len(pool); i++ {
		observe()
	}
	if allocs := testing.AllocsPerRun(len(pool), observe); allocs != 0 {
		t.Errorf("steady-state Observe allocates %v objects, want 0", allocs)
	}
	if transitions != 0 {
		t.Fatalf("stationary windows fired %d transitions", transitions)
	}
}

// TestWinBufSteadyStateAllocs pins a sample-buffer add plus an oldest-first
// read at zero allocations once the ring's slots have grown.
func TestWinBufSteadyStateAllocs(t *testing.T) {
	b := newWinBuf(8)
	win := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 16; i++ {
		b.add(win)
		b.all()
	}
	if allocs := testing.AllocsPerRun(100, func() {
		b.add(win)
		if len(b.all()) != 64 {
			t.Fatal("ring lost samples")
		}
	}); allocs != 0 {
		t.Errorf("winBuf add+read allocates %v objects, want 0", allocs)
	}
}

// TestWinBufMatchesConcatenation checks the ring against a plain
// keep-the-last-max-windows list of windows, with window sizes
// varying so reused slots shrink and grow.
func TestWinBufMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := newWinBuf(5)
	var wins [][]float64
	for i := 0; i < 500; i++ {
		w := make([]float64, rng.Intn(12))
		for j := range w {
			w[j] = rng.Float64()
		}
		if rng.Intn(50) == 0 {
			b.reset()
			wins = nil
		}
		b.add(w)
		if wins = append(wins, w); len(wins) > 5 {
			wins = wins[1:]
		}
		var want []float64
		for _, w := range wins {
			want = append(want, w...)
		}
		if got := b.all(); fmt.Sprint(got) != fmt.Sprint(want) || b.count() != len(want) {
			t.Fatalf("step %d: ring reads %v (count %d), want %v", i, got, b.count(), want)
		}
	}
}
