package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"cosmodel"
	"cosmodel/internal/proctest"
)

func TestConfigureDefaults(t *testing.T) {
	cfg, run, err := configure([]string{
		"-nodes", "http://a:8080, http://b:8080,http://c:8080",
		"-devices", "8",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Nodes) != 3 || cfg.Nodes[1] != "http://b:8080" {
		t.Errorf("nodes parsed as %v", cfg.Nodes)
	}
	if cfg.Devices != 8 || cfg.Replicas != 2 || cfg.Partitions != 64 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	want := []float64{0.010, 0.050, 0.100}
	for i, s := range cfg.SLAs {
		if s != want[i] {
			t.Errorf("SLAs %v, want %v", cfg.SLAs, want)
			break
		}
	}
	if run.addr != ":8090" || run.grace != 15*time.Second {
		t.Errorf("run options %+v", run)
	}
}

func TestConfigureRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{}, // no nodes
		{"-nodes", "http://a:8080", "-replicas", "3"}, // replicas > nodes
		{"-nodes", "http://a:8080,http://b:8080", "-slas", "nonsense"},
		{"-nodes", "http://a:8080,http://b:8080", "-partitions", "33"},
		{"-nodes", "http://a:8080,http://b:8080", "-devices", "0"},
	}
	for i, args := range cases {
		if _, _, err := configure(args); err == nil {
			t.Errorf("case %d (%v): no error", i, args)
		}
	}
}

func TestMain(m *testing.M) { proctest.Main(m, main) }

// TestExitsOnSIGTERM runs the real binary in front of one in-process shard:
// SIGTERM with an idle keep-alive connection open must drain and exit 0
// promptly, with the prober and warm-up goroutines still running.
func TestExitsOnSIGTERM(t *testing.T) {
	props := cosmodel.DeviceProperties{
		IndexDisk: cosmodel.NewGammaMeanSCV(9e-3, 0.45),
		MetaDisk:  cosmodel.NewGammaMeanSCV(6e-3, 0.50),
		DataDisk:  cosmodel.NewGammaMeanSCV(8e-3, 0.40),
		ParseFE:   cosmodel.Degenerate{Value: 300e-6},
		ParseBE:   cosmodel.Degenerate{Value: 500e-6},
	}
	cfg := cosmodel.DefaultServeConfig(props, 4)
	cfg.ShardMode = true
	shard, err := cosmodel.NewServeServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(shard.Handler())
	defer ts.Close()
	proctest.ExitsOnSIGTERM(t, "-nodes", ts.URL, "-replicas", "1", "-probe", "50ms")
}
