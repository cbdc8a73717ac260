package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"cosmodel/internal/core"
	"cosmodel/internal/coscode"
)

// This file turns /predict and /advise requests into core queries. Every
// question the engine answers is one core.Query: a plain read, an (n,k)
// coded read or a w-of-n quorum write. The wire names the last two with
// the specs below, and the answer echoes them back.

// CodedReadSpec is the wire form of a coded-read configuration: the
// object is striped over n backends and the response completes at the
// k-th-fastest sub-read. With hedging only the k primaries are issued up
// front; the n-k reserves follow hedgeDelaySeconds later. The delay must
// be finite on the wire (JSON cannot carry infinity; a reserve that is
// never issued is the same as striping with n == k).
type CodedReadSpec struct {
	N                 int     `json:"n"`
	K                 int     `json:"k"`
	Hedge             bool    `json:"hedge,omitempty"`
	HedgeDelaySeconds float64 `json:"hedgeDelaySeconds,omitempty"`
}

// query is the read whose order statistic is the stripe.
func (c CodedReadSpec) query() core.Query {
	return core.Query{Spec: coscode.Spec{N: c.N, K: c.K, Hedge: c.Hedge, HedgeDelay: c.HedgeDelaySeconds}}
}

func (c CodedReadSpec) validate() error {
	if math.IsInf(c.HedgeDelaySeconds, 0) {
		return fmt.Errorf("%w: coded hedge delay must be finite on the wire (use n == k for never-issued reserves)", ErrBadQuery)
	}
	return validateWire(c.query())
}

// WriteSpec is the wire form of a PUT replication policy: each write fans
// out to n replicas and is acknowledged at the w-th replica completion
// (w-of-n quorum), the w-th order statistic of the per-replica responses.
type WriteSpec struct {
	N int `json:"n"`
	W int `json:"w"`
}

// query is the write whose order statistic is the quorum.
func (s WriteSpec) query() core.Query {
	return core.Query{Op: core.OpWrite, Spec: coscode.Spec{N: s.N, K: s.W}}
}

func (s WriteSpec) validate() error { return validateWire(s.query()) }

// validateWire checks a query named on the wire. The spec is checked as
// sent, so an all-zero wire spec is rejected instead of read as (1,1).
func validateWire(q core.Query) error {
	err := q.Spec.Validate()
	if err == nil {
		err = q.Validate()
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return nil
}

// cacheKey is the memo key of an evaluation of q over the SLA grid at the
// operating point key, every device's load scaled by factor.
func cacheKey(key string, q core.Query, factor float64, slas []float64) string {
	var b strings.Builder
	b.WriteString(key)
	if q != (core.Query{}) {
		sp := q.Spec
		b.WriteString("|q=")
		for _, v := range []int{int(q.Op), int(q.Tier), sp.N, sp.K} {
			b.WriteString(strconv.Itoa(v))
			b.WriteByte(',')
		}
		if sp.Hedge {
			b.WriteString("h" + quantStr(sp.HedgeDelay))
		}
	}
	if factor != 1 {
		b.WriteString("|f=")
		b.WriteString(quantStr(factor))
	}
	b.WriteString("|slas=")
	for i, s := range slas {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(quantStr(s))
	}
	return b.String()
}

// PredictRequest is the /predict payload; GET requests pass the bounds as
// ?sla=0.01,0.05 instead. Empty bounds mean the configured defaults. A
// non-nil Coded spec (GET: ?codedN=6&codedK=4[&codedHedge=1&codedDelay=Δ])
// additionally answers the same bounds for (n,k) coded reads; a non-nil
// Write spec (GET: ?writeN=3&writeW=2) additionally answers them for
// w-of-n quorum PUTs. Tenant (GET: ?tenant=gold) annotates the answer with
// that class's windowed rates — the predictions themselves are evaluated at
// the shared aggregate operating point, because the FCFS queues every class
// shares serve all tenants the same latency distribution.
type PredictRequest struct {
	SLAs   []float64      `json:"slas"`
	Coded  *CodedReadSpec `json:"coded,omitempty"`
	Write  *WriteSpec     `json:"write,omitempty"`
	Tenant string         `json:"tenant,omitempty"`
}

// Plain reports whether the request asks only the plain-read question.
func (req PredictRequest) Plain() bool {
	return req.Coded == nil && req.Write == nil && req.Tenant == ""
}

// AdviseRequest is the /advise payload; GET passes ?sla=0.05&target=0.9,
// plus the optional codedN/codedK/codedHedge/codedDelay stripe shape. A
// non-empty Tenants map (GET: ?tenants=gold:3,bronze:1) switches to
// weighted multi-tenant admission: the answer adds the per-class allocation
// that sheds the cheapest tenant first. Tenant (GET: ?tenant=gold) is the
// single-tenant shorthand for Tenants{gold: 1}.
type AdviseRequest struct {
	SLA     float64            `json:"sla"`
	Target  float64            `json:"target"`
	Coded   *CodedReadSpec     `json:"coded,omitempty"`
	Tenant  string             `json:"tenant,omitempty"`
	Tenants map[string]float64 `json:"tenants,omitempty"`
}

// Plain reports whether the request asks only the plain-read question.
func (req AdviseRequest) Plain() bool {
	return req.Coded == nil && req.Tenant == "" && len(req.Tenants) == 0
}

// query is the read the advice is computed for.
func (req AdviseRequest) query() core.Query {
	if req.Coded != nil {
		return req.Coded.query()
	}
	return core.Query{}
}

// ErrMethodNotAllowed reports a /predict or /advise request that is
// neither GET nor POST.
var ErrMethodNotAllowed = errors.New("serve: GET or POST required")

// ParsePredict reads a /predict request from its GET parameters or its
// strict POST body and validates the specs it names.
func ParsePredict(w http.ResponseWriter, r *http.Request) (PredictRequest, error) {
	var req PredictRequest
	err := parseRequest(w, r, &req, func(q url.Values) (err error) {
		if req.SLAs, err = parseFloats(q.Get("sla")); err != nil {
			return err
		}
		if req.Coded, err = parseCodedParams(q); err != nil {
			return err
		}
		if req.Write, err = parseWriteParams(q); err != nil {
			return err
		}
		req.Tenant = strings.TrimSpace(q.Get("tenant"))
		return nil
	})
	if err == nil {
		err = validateSpecs(req.Coded, req.Write)
	}
	return req, err
}

// ParseAdvise reads an /advise request from its GET parameters or its
// strict POST body and validates the stripe shape it names.
func ParseAdvise(w http.ResponseWriter, r *http.Request) (AdviseRequest, error) {
	var req AdviseRequest
	err := parseRequest(w, r, &req, func(q url.Values) (err error) {
		if req.SLA, err = parseFloat(q.Get("sla")); err != nil {
			return fmt.Errorf("sla: %w", err)
		}
		if req.Target, err = parseFloat(q.Get("target")); err != nil {
			return fmt.Errorf("target: %w", err)
		}
		if req.Coded, err = parseCodedParams(q); err != nil {
			return err
		}
		if req.Tenants, err = parseTenantWeights(q.Get("tenants")); err != nil {
			return err
		}
		req.Tenant = strings.TrimSpace(q.Get("tenant"))
		return nil
	})
	if err == nil {
		err = validateSpecs(req.Coded, nil)
	}
	return req, err
}

// validateSpecs checks the wire specs a request names.
func validateSpecs(coded *CodedReadSpec, write *WriteSpec) error {
	if coded != nil {
		if err := coded.validate(); err != nil {
			return err
		}
	}
	if write != nil {
		return write.validate()
	}
	return nil
}

// parseRequest fills v from a strict POST body, or from GET parameters
// through fromQuery.
func parseRequest(w http.ResponseWriter, r *http.Request, v any, fromQuery func(url.Values) error) error {
	switch r.Method {
	case http.MethodGet:
		return fromQuery(r.URL.Query())
	case http.MethodPost:
		return decodeStrict(w, r, v)
	default:
		return ErrMethodNotAllowed
	}
}

func parseFloat(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return v, nil
}

// parseFloats parses a comma-separated float list; empty means nil (use
// defaults).
func parseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := parseFloat(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseCodedParams extracts the optional coded-read stripe shape from GET
// query parameters; nil when none were supplied.
func parseCodedParams(q url.Values) (*CodedReadSpec, error) {
	if strings.TrimSpace(q.Get("codedN")) == "" && strings.TrimSpace(q.Get("codedK")) == "" {
		return nil, nil
	}
	var spec CodedReadSpec
	var err error
	if spec.N, err = strconv.Atoi(strings.TrimSpace(q.Get("codedN"))); err != nil {
		return nil, fmt.Errorf("%w: codedN: %v", ErrBadQuery, err)
	}
	if spec.K, err = strconv.Atoi(strings.TrimSpace(q.Get("codedK"))); err != nil {
		return nil, fmt.Errorf("%w: codedK: %v", ErrBadQuery, err)
	}
	switch h := strings.TrimSpace(q.Get("codedHedge")); h {
	case "", "0", "false":
	case "1", "true":
		spec.Hedge = true
	default:
		return nil, fmt.Errorf("%w: codedHedge %q not a boolean", ErrBadQuery, h)
	}
	if d := q.Get("codedDelay"); strings.TrimSpace(d) != "" {
		if spec.HedgeDelaySeconds, err = parseFloat(d); err != nil {
			return nil, fmt.Errorf("codedDelay: %w", err)
		}
	}
	return &spec, nil
}

// parseWriteParams extracts the optional PUT replication policy from GET
// query parameters; nil when none were supplied.
func parseWriteParams(q url.Values) (*WriteSpec, error) {
	if strings.TrimSpace(q.Get("writeN")) == "" && strings.TrimSpace(q.Get("writeW")) == "" {
		return nil, nil
	}
	var spec WriteSpec
	var err error
	if spec.N, err = strconv.Atoi(strings.TrimSpace(q.Get("writeN"))); err != nil {
		return nil, fmt.Errorf("%w: writeN: %v", ErrBadQuery, err)
	}
	if spec.W, err = strconv.Atoi(strings.TrimSpace(q.Get("writeW"))); err != nil {
		return nil, fmt.Errorf("%w: writeW: %v", ErrBadQuery, err)
	}
	return &spec, nil
}

// parseTenantWeights parses the weighted tenant list "gold:3,bronze:1";
// empty means nil (no weighted admission). Weight values must parse here;
// their positivity is validated by the engine.
func parseTenantWeights(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		class, weight, found := strings.Cut(part, ":")
		if !found {
			return nil, fmt.Errorf("%w: tenant weight %q not class:weight", ErrBadQuery, part)
		}
		class = strings.TrimSpace(class)
		if class == "" {
			return nil, fmt.Errorf("%w: tenant weight %q has an empty class", ErrBadQuery, part)
		}
		w, err := parseFloat(weight)
		if err != nil {
			return nil, fmt.Errorf("tenant %q weight: %w", class, err)
		}
		if _, dup := out[class]; dup {
			return nil, fmt.Errorf("%w: tenant %q listed twice", ErrBadQuery, class)
		}
		out[class] = w
	}
	return out, nil
}
