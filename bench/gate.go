package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cosmodel/internal/ingest"
	"cosmodel/internal/serve"
)

// Golden tolerances: meet ratios are probabilities computed by the same
// numerics, so they must agree to rounding; the admission rate comes out of
// a root search and is compared relatively.
const (
	meetTol = 1e-9
	rateTol = 1e-6
)

type prediction struct {
	SLA       float64 `json:"sla"`
	MeetRatio float64 `json:"meetRatio"`
}

type predictAnswer struct {
	Predictions []prediction `json:"predictions"`
	Write       *struct {
		Predictions []prediction `json:"predictions"`
	} `json:"write"`
	CodedRead *struct {
		Predictions []prediction `json:"predictions"`
	} `json:"codedRead"`
}

type adviseAnswer struct {
	CurrentMeetRatio  float64 `json:"currentMeetRatio"`
	MaxAdmissibleRate float64 `json:"maxAdmissibleRate"`
}

// validMeets checks a prediction block: every meet ratio a probability and
// non-decreasing in the SLA bound (up to inversion rounding).
func validMeets(ps []prediction) bool {
	if len(ps) == 0 {
		return false
	}
	sorted := append([]prediction(nil), ps...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].SLA < sorted[j].SLA })
	for i, p := range sorted {
		if !(p.MeetRatio >= 0 && p.MeetRatio <= 1) {
			return false
		}
		if i > 0 && p.MeetRatio < sorted[i-1].MeetRatio-meetTol {
			return false
		}
	}
	return true
}

// validAnswer checks the invariants every 200 answer must hold during load.
func validAnswer(r *request, body []byte) bool {
	switch r.kind {
	case kPredict:
		var a predictAnswer
		if json.Unmarshal(body, &a) != nil || !validMeets(a.Predictions) {
			return false
		}
		if a.Write != nil && !validMeets(a.Write.Predictions) {
			return false
		}
		return a.CodedRead == nil || validMeets(a.CodedRead.Predictions)
	case kAdvise:
		var a adviseAnswer
		if json.Unmarshal(body, &a) != nil {
			return false
		}
		return a.CurrentMeetRatio >= 0 && a.CurrentMeetRatio <= 1 &&
			a.MaxAdmissibleRate >= 0 && !math.IsInf(a.MaxAdmissibleRate, 0)
	case kIngest:
		var a serve.IngestResponse
		return json.Unmarshal(body, &a) == nil && a.Accepted == r.obs
	}
	return false
}

// answer is one pinned gate answer.
type answer struct {
	Query             string    `json:"query"`
	MeetRatios        []float64 `json:"meetRatios,omitempty"`
	WriteMeetRatios   []float64 `json:"writeMeetRatios,omitempty"`
	CodedMeetRatios   []float64 `json:"codedMeetRatios,omitempty"`
	CurrentMeetRatio  *float64  `json:"currentMeetRatio,omitempty"`
	MaxAdmissibleRate *float64  `json:"maxAdmissibleRate,omitempty"`
}

type goldenFile struct {
	Workload string   `json:"workload"`
	Answers  []answer `json:"answers"`
}

func goldenPath(dir, name string) string { return filepath.Join(dir, name+".json") }

func loadGolden(dir, name string) (*goldenFile, error) {
	b, err := os.ReadFile(goldenPath(dir, name))
	if err != nil {
		return nil, fmt.Errorf("golden answers: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden answers %s: %w", name, err)
	}
	return &g, nil
}

func writeGolden(dir string, g *goldenFile) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir, g.Workload), append(b, '\n'), 0o644)
}

func meets(ps []prediction) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.MeetRatio
	}
	return out
}

var setupClient = &http.Client{Timeout: 30 * time.Second}

func fetch(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", ingest.ContentTypeNDJSON)
	}
	resp, err := setupClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// warmIngest posts the workload's deterministic warm batches.
func warmIngest(target string, w *workload) error {
	for _, batch := range w.warm() {
		r := ingestRequest(batch)
		b, err := fetch(http.MethodPost, target+r.path, r.body)
		if err != nil {
			return fmt.Errorf("warm ingest: %w", err)
		}
		if !validAnswer(&r, b) {
			return fmt.Errorf("warm ingest: bad acknowledgement %s", bytes.TrimSpace(b))
		}
	}
	return nil
}

// askGate runs the workload's gate queries against target.
func askGate(target string, w *workload) ([]answer, error) {
	var out []answer
	for _, q := range w.gate {
		b, err := fetch(http.MethodGet, target+q, nil)
		if err != nil {
			return nil, fmt.Errorf("gate: %w", err)
		}
		a := answer{Query: q}
		if strings.HasPrefix(q, "/advise") {
			var adv adviseAnswer
			if err := json.Unmarshal(b, &adv); err != nil {
				return nil, fmt.Errorf("gate %s: %w", q, err)
			}
			a.CurrentMeetRatio, a.MaxAdmissibleRate = &adv.CurrentMeetRatio, &adv.MaxAdmissibleRate
		} else {
			var p predictAnswer
			if err := json.Unmarshal(b, &p); err != nil {
				return nil, fmt.Errorf("gate %s: %w", q, err)
			}
			a.MeetRatios = meets(p.Predictions)
			if p.Write != nil {
				a.WriteMeetRatios = meets(p.Write.Predictions)
			}
			if p.CodedRead != nil {
				a.CodedMeetRatios = meets(p.CodedRead.Predictions)
			}
		}
		out = append(out, a)
	}
	return out, nil
}

// errGolden marks a correctness-gate mismatch: the run must stop without
// reporting metrics.
var errGolden = errors.New("correctness gate failed")

func closeEnough(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= meetTol) {
			return false
		}
	}
	return true
}

func compareAnswers(got, want []answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d answers, golden has %d", errGolden, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		mismatch := g.Query != w.Query ||
			!closeEnough(g.MeetRatios, w.MeetRatios) ||
			!closeEnough(g.WriteMeetRatios, w.WriteMeetRatios) ||
			!closeEnough(g.CodedMeetRatios, w.CodedMeetRatios) ||
			(g.CurrentMeetRatio == nil) != (w.CurrentMeetRatio == nil)
		if !mismatch && g.CurrentMeetRatio != nil {
			mismatch = !closeEnough([]float64{*g.CurrentMeetRatio}, []float64{*w.CurrentMeetRatio}) ||
				!(math.Abs(*g.MaxAdmissibleRate-*w.MaxAdmissibleRate) <= rateTol*math.Abs(*w.MaxAdmissibleRate))
		}
		if mismatch {
			gb, _ := json.Marshal(g)
			wb, _ := json.Marshal(w)
			return fmt.Errorf("%w: got %s, golden %s", errGolden, gb, wb)
		}
	}
	return nil
}

// crossCheckRouter compares the router's plain predictions in got against
// one in-process engine holding every device, fed the same warm batches:
// sharding must be invisible in a healthy tier.
func crossCheckRouter(w *workload, got []answer) error {
	eng, err := serve.NewEngine(serveConfig(w, false))
	if err != nil {
		return err
	}
	defer eng.Close()
	for _, batch := range w.warm() {
		if err := eng.Ingest(batch); err != nil {
			return err
		}
	}
	for _, a := range got {
		if !strings.HasPrefix(a.Query, "/predict") {
			continue
		}
		u, err := url.Parse(a.Query)
		if err != nil {
			return err
		}
		var slas []float64
		for _, s := range strings.Split(u.Query().Get("sla"), ",") {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return fmt.Errorf("gate query %s: %w", a.Query, err)
			}
			slas = append(slas, v)
		}
		ps, err := eng.Predict(slas)
		if err != nil {
			return err
		}
		want := make([]float64, len(ps))
		for i, p := range ps {
			want[i] = p.MeetRatio
		}
		if !closeEnough(a.MeetRatios, want) {
			return fmt.Errorf("%w: router %s answered %v, single engine %v", errGolden, a.Query, a.MeetRatios, want)
		}
	}
	return nil
}

// gate runs the correctness gate on a freshly warmed deployment.
func gate(d *deployment, w *workload, gold *goldenFile) error {
	got, err := askGate(d.target, w)
	if err != nil {
		return err
	}
	if err := compareAnswers(got, gold.Answers); err != nil {
		return err
	}
	if w.cluster {
		return crossCheckRouter(w, got)
	}
	return nil
}
