package main

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cosmodel"
	"cosmodel/internal/proctest"
)

func TestConfigure(t *testing.T) {
	cfg, run, err := configure([]string{
		"-addr", ":9999", "-devices", "8", "-nbe", "16",
		"-slas", "25ms,100ms", "-window", "30s",
		"-eval-timeout", "2s", "-shutdown-grace", "3s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.addr != ":9999" || cfg.Devices != 8 || cfg.ProcsPerDevice != 16 {
		t.Errorf("cfg %+v run %+v", cfg, run)
	}
	if cfg.Opts.EvalTimeout != 2*time.Second || run.grace != 3*time.Second {
		t.Errorf("eval timeout %v grace %v", cfg.Opts.EvalTimeout, run.grace)
	}
	if len(cfg.SLAs) != 2 || math.Abs(cfg.SLAs[0]-0.025) > 1e-12 {
		t.Errorf("SLAs %v", cfg.SLAs)
	}
	if cfg.Window != 30 {
		t.Errorf("window %v", cfg.Window)
	}
	if cfg.Calib != nil {
		t.Error("calibration must stay disabled without -calib")
	}
	if _, _, err := configure([]string{"-slas", "bogus"}); err == nil {
		t.Error("bad SLA list should fail")
	}
	if _, _, err := configure([]string{"-devices", "0"}); err == nil {
		t.Error("zero devices should fail")
	}
}

func TestConfigureCalib(t *testing.T) {
	cfg, _, err := configure([]string{
		"-calib", "-devices", "6",
		"-calib-ks-factor", "2.5", "-calib-confirm", "3", "-calib-cooldown", "5",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Calib == nil {
		t.Fatal("-calib did not enable the subsystem")
	}
	def := cosmodel.DefaultCalibConfig(6)
	switch {
	case cfg.Calib.KSFactor != 2.5:
		t.Errorf("KS factor %v", cfg.Calib.KSFactor)
	case cfg.Calib.ConfirmWindows != 3 || cfg.Calib.CooldownWindows != 5:
		t.Errorf("confirm/cooldown %d/%d", cfg.Calib.ConfirmWindows, cfg.Calib.CooldownWindows)
	case cfg.Calib.PHDelta != def.PHDelta || cfg.Calib.CUSUMSlack != def.CUSUMSlack:
		t.Errorf("unset thresholds must keep defaults: %+v", cfg.Calib)
	}
	// Out-of-range detector settings must fail configuration, not serve.
	if _, _, err := configure([]string{"-calib", "-calib-ph-lambda", "-1"}); err == nil {
		t.Error("negative Page-Hinkley lambda should fail")
	}
}

// TestServeSmoke builds a server from default flags and drives one
// ingest/predict round trip through the HTTP handler.
func TestServeSmoke(t *testing.T) {
	cfg, _, err := configure(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cosmodel.NewServeServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"observations":[{"device":0,"interval":10,"requests":400,"dataReads":480,
		"indexHits":700,"indexMisses":300,"metaHits":650,"metaMisses":350,
		"dataHits":500,"dataMisses":500}]}`
	resp, err := ts.Client().Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
}

func TestMain(m *testing.M) { proctest.Main(m, main) }

// TestExitsOnSIGTERM runs the real binary: SIGTERM with an idle keep-alive
// connection open must drain and exit 0 promptly.
func TestExitsOnSIGTERM(t *testing.T) {
	proctest.ExitsOnSIGTERM(t, "-devices", "4")
}
