package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"cosmodel/internal/ingest"
	"cosmodel/internal/retry"
	"cosmodel/internal/serve"
)

// shardClient issues the router's HTTP calls to shard nodes: plain
// retrying requests for ingest forwarding and state probes, and the hedged
// fan-out over replica chains for the latency-critical partial
// evaluations.
type shardClient struct {
	nodes      []string
	hc         *http.Client
	policy     retry.Policy
	hedgeDelay time.Duration
	logf       func(format string, args ...any)

	// Metric hooks, all optional.
	onHedge    func(node int) // a hedge timer fired and raced a standby
	onFailover func(node int) // an attempt failed and the next replica took over
	onRetry    func(node int) // one shard call retried (backoff/Retry-After)
	// onAttemptError reports a raced attempt that failed outright (not a
	// cancellation of a losing hedge) so the health tracker can strike the
	// node instead of re-dialing a corpse on every query.
	onAttemptError func(node int, err error)
	// onAttemptDone runs as a partial attempt's goroutine finishes, after it
	// delivered its result.
	onAttemptDone func(node int, err error)
}

func newShardClient(cfg Config) *shardClient {
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second, Transport: newTransport(cfg)}
	}
	return &shardClient{
		nodes:      cfg.Nodes,
		hc:         hc,
		policy:     cfg.Retry,
		hedgeDelay: cfg.HedgeDelay,
		logf:       cfg.Logf,
	}
}

// newTransport returns net/http's default transport with an idle pool
// sized for the router's concurrency: one idle connection per in-flight
// query and node. The default keeps two per host, so concurrent fan-outs
// and ingest forwards beyond that dial a fresh connection and drop it.
func newTransport(cfg Config) http.RoundTripper {
	dt, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return nil // a replaced default: use it as is
	}
	t := dt.Clone()
	t.MaxIdleConnsPerHost = cfg.MaxInflight
	t.MaxIdleConns = cfg.MaxInflight * len(cfg.Nodes)
	return t
}

// fanOutContext derives the context of one fan-out: its deadline is no
// later than the client's Timeout, so net/http arms no per-call timer of
// its own (it skips the timer when the request's context expires sooner).
func (c *shardClient) fanOutContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.hc.Timeout > 0 {
		return context.WithTimeout(ctx, c.hc.Timeout)
	}
	return context.WithCancel(ctx)
}

// errShardStatus marks a non-2xx shard answer with its status and body.
type errShardStatus struct {
	status int
	body   string
}

func (e *errShardStatus) Error() string {
	return fmt.Sprintf("shard status %d: %s", e.status, e.body)
}

// doJSON performs one retrying JSON exchange with a node. The retry policy
// honors the shard's load-shed protocol: 503 waits out the Retry-After
// hint, 4xx is permanent (the request itself is wrong — another replica
// would reject it identically), network errors and 5xx retry on backoff.
func (c *shardClient) doJSON(ctx context.Context, node int, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return retry.Permanent(err)
		}
	}
	var decode func([]byte) error
	if out != nil {
		decode = func(b []byte) error { return json.Unmarshal(b, out) }
	}
	return c.doRaw(ctx, node, method, path, payload, "application/json", decode)
}

// doRaw is doJSON with a pre-encoded payload, an explicit content type and
// the answer's decoder (nil discards it). The NDJSON forwarding path
// encodes once and replays the same bytes across retries.
func (c *shardClient) doRaw(ctx context.Context, node int, method, path string, payload []byte, contentType string, decode func([]byte) error) error {
	attempt := 0
	return c.policy.Do(ctx, func(ctx context.Context) error {
		if attempt++; attempt > 1 && c.onRetry != nil {
			c.onRetry(node)
		}
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.nodes[node]+path, rd)
		if err != nil {
			return retry.Permanent(err)
		}
		if payload != nil {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			serr := &errShardStatus{status: resp.StatusCode, body: string(bytes.TrimSpace(b))}
			switch {
			case resp.StatusCode == http.StatusServiceUnavailable:
				return retry.After(serr, retry.HTTPRetryAfter(resp.Header))
			case resp.StatusCode >= 400 && resp.StatusCode < 500:
				return retry.Permanent(serr)
			default:
				return serr
			}
		}
		if decode == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			return nil
		}
		buf := bodyBufs.Get().(*bytes.Buffer)
		defer putBodyBuf(buf)
		buf.Reset()
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return fmt.Errorf("reading shard response: %w", err)
		}
		if err := decode(buf.Bytes()); err != nil {
			return fmt.Errorf("decoding shard response: %w", err)
		}
		return nil
	})
}

// bodyBufs recycles the buffers shard answers are read into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBodyBuf returns a buffer to the pool unless an outsized answer (a
// large /shard/state) grew it.
func putBodyBuf(b *bytes.Buffer) {
	if b.Cap() <= 64<<10 {
		bodyBufs.Put(b)
	}
}

// postIngest dual-writes a batch to one replica over the streaming NDJSON
// mode: the shard absorbs it through its striped ingest path in pooled
// chunks instead of materializing the whole envelope, and the wire format
// costs one line per observation rather than a JSON array in memory.
func (c *shardClient) postIngest(ctx context.Context, node int, batch []serve.Observation) error {
	var buf bytes.Buffer
	if err := ingest.EncodeNDJSON(&buf, batch); err != nil {
		return retry.Permanent(err)
	}
	return c.doRaw(ctx, node, http.MethodPost, "/ingest",
		buf.Bytes(), ingest.ContentTypeNDJSON, nil)
}

func (c *shardClient) getState(ctx context.Context, node int) (serve.ShardStateResponse, error) {
	var st serve.ShardStateResponse
	err := c.doJSON(ctx, node, http.MethodGet, "/shard/state", nil, &st)
	return st, err
}

func (c *shardClient) postInvalidate(ctx context.Context, node int, gen uint64) error {
	return c.doJSON(ctx, node, http.MethodPost, "/shard/invalidate",
		serve.ShardInvalidateRequest{Generation: gen}, nil)
}

// partialCall is one coverage group's progress through its replica chain
// during a fan-out, and its outcome: resp from node, or err once every
// replica failed or the fan-out's context ended.
type partialCall struct {
	resp serve.PartialResponse
	node int
	err  error

	done              bool
	launched, pending int       // attempts started and still running
	hedgeAt           time.Time // when to race the next replica; zero: never
	errs              []error
}

// partialAttempt is one attempt's answer.
type partialAttempt struct {
	group, node int
	resp        serve.PartialResponse
	err         error
}

// partials asks every coverage group for its partial CDF with a GET of
// paths[i], in one loop. Each attempt runs on its own goroutine and
// reports on one channel sized to every possible attempt, so an abandoned
// attempt never blocks; one timer is armed at the earliest pending hedge.
// Per group it tries the first live replica, hedges to the next when the
// hedge delay passes without an answer, fails over at once on error, and
// joins the errors when the chain is exhausted. All replicas hold the same
// dual-written state, so whichever answers first is equally authoritative.
// The calls come back in group order. When ctx ends first, every group
// still open fails with its error. Attempts still running on return stop
// when the caller cancels ctx.
func (c *shardClient) partials(ctx context.Context, groups []CoverageGroup, paths []string) []partialCall {
	capacity := 0
	for _, g := range groups {
		capacity += len(g.Chain)
	}
	// One slot per possible attempt: an attempt still running when the
	// loop returns delivers its result without a receiver.
	results := make(chan partialAttempt, capacity)
	calls := make([]partialCall, len(groups))
	launch := func(gi int, now time.Time) {
		chain, call := groups[gi].Chain, &calls[gi]
		node, path := chain[call.launched], paths[gi]
		call.launched++
		call.pending++
		call.hedgeAt = time.Time{}
		if c.hedgeDelay > 0 && call.launched < len(chain) {
			call.hedgeAt = now.Add(c.hedgeDelay)
		}
		go func() {
			var resp serve.PartialResponse
			err := c.doRaw(ctx, node, http.MethodGet, path, nil, "", func(b []byte) error {
				return json.Unmarshal(b, &resp)
			})
			results <- partialAttempt{group: gi, node: node, resp: resp, err: err}
			if c.onAttemptDone != nil {
				c.onAttemptDone(node, err)
			}
		}()
	}
	now := time.Now()
	for gi := range groups {
		launch(gi, now)
	}

	var (
		hedge   *time.Timer
		armedAt time.Time // the hedge time the timer is armed for; zero: none
	)
	defer func() {
		if hedge != nil {
			hedge.Stop()
		}
	}()
	for open := len(groups); open > 0; {
		var next time.Time
		for i := range calls {
			if at := calls[i].hedgeAt; !calls[i].done && !at.IsZero() && (next.IsZero() || at.Before(next)) {
				next = at
			}
		}
		var hedgeC <-chan time.Time
		if !next.IsZero() {
			if !next.Equal(armedAt) {
				if hedge == nil {
					hedge = time.NewTimer(time.Until(next))
				} else {
					hedge.Reset(time.Until(next))
				}
				armedAt = next
			}
			hedgeC = hedge.C
		}
		select {
		case a := <-results:
			call, chain := &calls[a.group], groups[a.group].Chain
			call.pending--
			if call.done {
				break // a losing attempt of an answered group
			}
			if a.err == nil {
				call.resp, call.node, call.done = a.resp, a.node, true
				open--
				break
			}
			if c.onAttemptError != nil && !errors.Is(a.err, context.Canceled) {
				c.onAttemptError(a.node, a.err)
			}
			call.errs = append(call.errs, fmt.Errorf("node %d: %w", a.node, a.err))
			if call.launched < len(chain) {
				if c.onFailover != nil {
					c.onFailover(chain[call.launched])
				}
				launch(a.group, time.Now())
			} else if call.pending == 0 {
				call.err, call.done = errors.Join(call.errs...), true
				open--
			}
		case now := <-hedgeC:
			// A stale fire (a timer value left from before a Reset) finds
			// no hedge due and only re-arms.
			armedAt = time.Time{}
			for gi := range calls {
				call := &calls[gi]
				if call.done || call.hedgeAt.IsZero() || now.Before(call.hedgeAt) {
					continue
				}
				if c.onHedge != nil {
					c.onHedge(groups[gi].Chain[call.launched])
				}
				launch(gi, now)
			}
		case <-ctx.Done():
			for gi := range calls {
				if call := &calls[gi]; !call.done {
					call.err, call.done = errors.Join(append(call.errs, ctx.Err())...), true
				}
			}
			return calls
		}
	}
	return calls
}
