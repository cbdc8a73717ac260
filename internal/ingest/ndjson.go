package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Content types negotiated by the /ingest endpoint.
const (
	// ContentTypeJSON is the original array mode: one IngestRequest
	// envelope, absorbed all-or-nothing.
	ContentTypeJSON = "application/json"
	// ContentTypeNDJSON is the streaming batch mode: one Observation per
	// line, validated and absorbed chunk by chunk.
	ContentTypeNDJSON = "application/x-ndjson"
)

// DefaultChunkSize is the observations-per-chunk granularity of the NDJSON
// streaming decoder: large enough to amortize the per-chunk table pass,
// small enough that a rejected line loses at most one chunk of progress.
const DefaultChunkSize = 256

// maxLineBytes bounds one NDJSON line; a single observation (even with
// generous latency sample arrays) fits comfortably in 1 MiB.
const maxLineBytes = 1 << 20

// LineError locates a decode or validation failure in an NDJSON stream.
// Line is 1-based and counts every physical line, blank ones included.
type LineError struct {
	Line int
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }
func (e *LineError) Unwrap() error { return e.Err }

// maxPooledChunk bounds the observation slices the pools keep: a caller
// that once used a huge chunk must not pin that memory for the process's
// lifetime.
const maxPooledChunk = 4 * DefaultChunkSize

// Sizes of the pooled decode state. The line buffer is the scanner's
// initial buffer (a longer line makes the scanner grow a private one, up to
// maxLineBytes, which is never pooled). The arena starts large enough for a
// default chunk of observations carrying a few dozen samples each; an arena
// that grew past maxPooledArena is dropped instead of pooled, so one
// oversized request cannot pin its memory. maxInterned bounds the class
// labels one decode state remembers.
const (
	lineBufBytes   = 64 << 10
	arenaFloats    = 4 << 10
	maxPooledArena = 64 << 10
	maxInterned    = 64
)

// decodeState is the pooled per-call state of DecodeNDJSON: the scanner and
// its line buffer, the chunk being filled, the float arena every sample
// array of that chunk is a sub-slice of, and the class labels seen so far.
// The arena is reset at every emitted chunk, so its size is bounded by one
// chunk's samples, not by the stream's.
type decodeState struct {
	sc      bufio.Scanner
	line    []byte
	chunk   []Observation
	floats  []float64
	classes map[string]string
}

var decodePool = sync.Pool{
	New: func() any {
		return &decodeState{
			line:    make([]byte, lineBufBytes),
			chunk:   make([]Observation, 0, DefaultChunkSize),
			floats:  make([]float64, 0, arenaFloats),
			classes: make(map[string]string),
		}
	},
}

func getDecodeState(r io.Reader) *decodeState {
	st := decodePool.Get().(*decodeState)
	st.sc = *bufio.NewScanner(r)
	st.sc.Buffer(st.line, maxLineBytes)
	return st
}

// release drops every reference the state holds into the request and pools
// it, unless a large request grew it past the pooling bounds.
func (st *decodeState) release() {
	st.sc = bufio.Scanner{}
	st.reset()
	if cap(st.floats) <= maxPooledArena && cap(st.chunk) <= maxPooledChunk {
		decodePool.Put(st)
	}
}

// reset empties the chunk and the arena for the next chunk.
func (st *decodeState) reset() {
	clear(st.chunk)
	st.chunk = st.chunk[:0]
	st.floats = st.floats[:0]
}

// intern returns the class label b as a string, reusing the string of an
// earlier identical label so a labelled stream allocates each label once.
func (st *decodeState) intern(b []byte) string {
	if s, ok := st.classes[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(st.classes) < maxInterned {
		st.classes[s] = s
	}
	return s
}

// DecodeNDJSON reads newline-delimited observations from r, validating each
// line against the deployment size, and emits them in chunks of up to
// chunkSize (0 selects DefaultChunkSize).
//
// Ownership: the chunk passed to emit, and every sample array of its
// observations, belongs to the decoder and is valid only for the duration
// of the call. The arrays are capacity-clipped sub-slices of one pooled
// arena (appending to one copies it rather than overwriting a neighbour),
// and the arena is reused for the next chunk. emit must copy anything it
// keeps: the state table keeps no sample array, and a consumer that
// retains observations copies them with AppendOwned.
//
// accepted counts observations successfully handed to emit. Blank lines are
// skipped. A malformed or invalid line aborts the stream with a *LineError
// (earlier chunks stay absorbed — streaming is chunk-atomic, not
// batch-atomic); an emit error aborts with that error; a reader error (e.g.
// http.MaxBytesError from a capped body) is returned unwrapped so callers
// keep their size taxonomy.
//
// Each line is parsed by a hand-rolled flat-field scanner (zero allocations
// for the common shape); any line the scanner cannot handle with certainty
// falls back to an encoding/json parse of that line, so the observable
// behavior is byte-for-byte the stdlib's (FuzzNDJSONScannerEquivalence pins
// the two paths against each other).
func DecodeNDJSON(r io.Reader, devices, chunkSize int, emit func([]Observation) error) (accepted int, err error) {
	return decodeNDJSON(r, devices, chunkSize, emit, true)
}

// decodeNDJSON is DecodeNDJSON with the fast scanner optionally disabled —
// the stdlib-only mode is the oracle the equivalence fuzz target compares
// against.
func decodeNDJSON(r io.Reader, devices, chunkSize int, emit func([]Observation) error, fast bool) (accepted int, err error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	st := getDecodeState(r)
	defer st.release()
	flush := func() error {
		if len(st.chunk) == 0 {
			return nil
		}
		if err := emit(st.chunk); err != nil {
			return err
		}
		accepted += len(st.chunk)
		st.reset()
		return nil
	}
	sc := &st.sc
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		// Each line decodes in place into the chunk's next slot.
		st.chunk = append(st.chunk, Observation{})
		o := &st.chunk[len(st.chunk)-1]
		mark := len(st.floats)
		if !fast || !scanObservation(raw, o, st) {
			st.floats = st.floats[:mark] // discard any partial fast-path state
			*o = Observation{}
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(o); err != nil {
				// A reader error (a capped body, a dropped connection) makes the
				// scanner surface its buffered remainder as a final, truncated
				// token; that token failing to parse is the reader's fault, not
				// the input's — report the reader error so callers keep their
				// taxonomy (http.MaxBytesError → 413).
				if rerr := sc.Err(); rerr != nil {
					return accepted, rerr
				}
				return accepted, &LineError{Line: line, Err: fmt.Errorf("%w: %v", ErrInvalid, err)}
			}
			if dec.More() {
				return accepted, &LineError{Line: line, Err: fmt.Errorf("%w: trailing data after observation", ErrInvalid)}
			}
			o.Latencies, o.DiskIndexLat = slices.Clip(o.Latencies), slices.Clip(o.DiskIndexLat)
			o.DiskMetaLat, o.DiskDataLat = slices.Clip(o.DiskMetaLat), slices.Clip(o.DiskDataLat)
		}
		if err := o.Validate(devices); err != nil {
			return accepted, &LineError{Line: line, Err: err}
		}
		if len(st.chunk) >= chunkSize {
			if err := flush(); err != nil {
				return accepted, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return accepted, &LineError{Line: line + 1,
				Err: fmt.Errorf("%w: line exceeds %d bytes", ErrInvalid, maxLineBytes)}
		}
		return accepted, err
	}
	return accepted, flush()
}

// AppendOwned appends copies of batch to dst whose sample arrays are copied
// into floats, and returns both grown slices. The copies share no memory
// with batch, so a consumer keeping decoded observations past DecodeNDJSON's
// emit call (a queue, a forwarder) stays valid after the decoder reuses its
// arena. floats is grown at most once, and the copied arrays keep the
// decoder's shape: nil stays nil, empty stays empty and non-nil, and every
// array has len == cap.
func AppendOwned(dst []Observation, floats []float64, batch []Observation) ([]Observation, []float64) {
	n := 0
	for i := range batch {
		o := &batch[i]
		n += len(o.Latencies) + len(o.DiskIndexLat) + len(o.DiskMetaLat) + len(o.DiskDataLat)
	}
	if floats = slices.Grow(floats, n); floats == nil {
		floats = []float64{} // an empty array must copy as empty, not nil
	}
	own := func(s []float64) []float64 {
		if s == nil {
			return nil
		}
		lo := len(floats)
		floats = append(floats, s...)
		return floats[lo:len(floats):len(floats)]
	}
	for i := range batch {
		dst = append(dst, batch[i])
		o := &dst[len(dst)-1]
		o.Latencies, o.DiskIndexLat = own(o.Latencies), own(o.DiskIndexLat)
		o.DiskMetaLat, o.DiskDataLat = own(o.DiskMetaLat), own(o.DiskDataLat)
	}
	return dst, floats
}

// EncodeNDJSON writes batch in the streaming wire format: one JSON
// observation per line.
func EncodeNDJSON(w io.Writer, batch []Observation) error {
	enc := json.NewEncoder(w)
	for i := range batch {
		if err := enc.Encode(&batch[i]); err != nil {
			return err
		}
	}
	return nil
}
