package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Stream ids of an arrival.
const (
	primaryStream uint8 = iota
	backgroundStream
)

// arrival is one scheduled request: when it is due (offset from the slice
// start), which stream it belongs to and its index in that stream.
type arrival struct {
	at     time.Duration
	stream uint8
	idx    int32
}

// outcome is what happened to one request. Times are offsets from the
// generator's epoch; sent is when the request was released to the workers.
type outcome struct {
	due, sent, done time.Duration
	status          int // HTTP status; 0 for a transport error
	bad             bool
	stream          uint8
	bytes           int
}

// ok reports a 200 answer that passed its invariant check.
func (o *outcome) ok() bool { return o.status == http.StatusOK && !o.bad }

// latency is the time from due to completion; +Inf when the request did not
// complete with a correct answer, so that it misses every latency limit.
func (o *outcome) latency() float64 {
	if !o.ok() {
		return inf
	}
	return (o.done - o.due).Seconds()
}

// generator drives a deployment from one process over conns keep-alive
// connections, one worker each. The primary stream runs closed-loop: a
// worker sends its next primary request as soon as the previous answer is
// in, so every connection stays busy. The background stream runs open-loop:
// a dispatcher on its own OS thread releases Poisson arrivals at their due
// time, the next free worker sends each ahead of its next primary request,
// and their latency is timed from the due time, so the wait for a free
// connection is counted.
type generator struct {
	target  string
	streams [2]*stream
	clients []*http.Client
	epoch   time.Time
	next    [2]int // next request index per stream: later slices continue the stream
	rng     *rand.Rand
	check   bool // check every 200 answer's invariants (off for the null server)
}

func newGenerator(target string, primary, background *stream, conns int, seed int64) *generator {
	g := &generator{
		target:  target,
		streams: [2]*stream{primary, background},
		epoch:   time.Now(),
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed)),
		check:   true,
	}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// schedule draws Poisson arrivals of both streams over d, merged in due
// order.
func (g *generator) schedule(primaryRate, bgRate float64, d time.Duration) []arrival {
	var out []arrival
	for s, rate := range []float64{primaryRate, bgRate} {
		if rate <= 0 {
			continue
		}
		t := time.Duration(0)
		for {
			t += time.Duration(g.rng.ExpFloat64() / rate * float64(time.Second))
			if t >= d {
				break
			}
			out = append(out, arrival{at: t, stream: uint8(s), idx: int32(g.next[s])})
			g.next[s]++
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// sliceResult is the outcome of every request of one slice, with the
// slice's start as an offset from the epoch.
type sliceResult struct {
	start time.Duration
	out   []outcome
}

// drive runs one slice of length d: the primary stream closed-loop on every
// connection, and the background arrivals bg (offsets from the slice
// start) released at their due times. A background arrival released but
// not yet sent when the slice ends is sent then; one not yet due is not.
func (g *generator) drive(ctx context.Context, bg []arrival, d time.Duration) sliceResult {
	start := time.Since(g.epoch)
	res := sliceResult{start: start}
	bgOut := make([]outcome, len(bg))
	bgq := make(chan int, len(bg))
	stop := make(chan struct{})
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := range bg {
			due := start + bg[i].at
			sleepUntil(g.epoch, due)
			select {
			case <-stop:
				return
			default:
			}
			bgOut[i] = outcome{due: due, sent: time.Since(g.epoch), stream: backgroundStream}
			bgq <- i
		}
	}()
	base := g.next[primaryStream]
	var next atomic.Int64
	outs := make([][]outcome, len(g.clients))
	var wg sync.WaitGroup
	for w, c := range g.clients {
		wg.Add(1)
		go func(w int, c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil && time.Since(g.epoch) < start+d {
				select {
				case i := <-bgq:
					g.send(ctx, c, &bg[i], &bgOut[i], &buf)
				default:
					a := arrival{stream: primaryStream, idx: int32(base + int(next.Add(1)-1))}
					now := time.Since(g.epoch)
					o := outcome{due: now, sent: now, stream: primaryStream}
					g.send(ctx, c, &a, &o, &buf)
					outs[w] = append(outs[w], o)
				}
			}
		}(w, c)
	}
	wg.Wait()
	close(stop)
	<-dispatched
	close(bgq)
	var buf bytes.Buffer
	for i := range bgq {
		g.send(ctx, g.clients[0], &bg[i], &bgOut[i], &buf)
	}
	g.next[primaryStream] = base + int(next.Load())
	for _, o := range outs {
		res.out = append(res.out, o...)
	}
	for i := range bgOut {
		if bgOut[i].due != 0 { // released
			res.out = append(res.out, bgOut[i])
		}
	}
	return res
}

func (g *generator) send(ctx context.Context, c *http.Client, a *arrival, o *outcome, buf *bytes.Buffer) {
	r := g.streams[a.stream].at(int(a.idx))
	method := http.MethodGet
	var body io.Reader
	if r.body != nil {
		method = http.MethodPost
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, g.target+r.path, body)
	if err != nil {
		o.done = time.Since(g.epoch)
		return
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	resp, err := c.Do(req)
	if err != nil {
		o.done = time.Since(g.epoch)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.done = time.Since(g.epoch)
	if err != nil {
		return
	}
	o.status = resp.StatusCode
	o.bytes = buf.Len()
	if o.status == http.StatusOK && g.check {
		o.bad = !validAnswer(r, buf.Bytes())
	}
}

// sleepUntil blocks the calling OS thread until epoch+due with nanosleep:
// the Go timer wheel overshoots sub-millisecond sleeps by about a
// millisecond, nanosleep by tens of microseconds.
func sleepUntil(epoch time.Time, due time.Duration) {
	for {
		d := due - time.Since(epoch)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: loop re-checks the clock
	}
}
