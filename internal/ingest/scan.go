package ingest

import "strconv"

// Hand-rolled NDJSON line scanner. The stdlib path costs a decoder, a
// reader and reflection machinery per line; this scanner walks the flat
// Observation object once with zero allocations for the common shape
// (known ASCII keys, plain numbers, no escapes). It is deliberately
// conservative: the moment a line deviates from that shape — an unknown or
// duplicated key, an escape sequence, non-ASCII text, a number needing
// arbitrary-precision rounding, null, nesting, trailing data — it reports
// failure and the caller re-parses the line through encoding/json, so
// accept/reject behavior and error text are byte-for-byte the stdlib's
// (pinned by FuzzNDJSONScannerEquivalence).

// Field indices for the duplicate-key bitmask, one bit per JSON key.
const (
	fDevice = iota
	fClass
	fInterval
	fRequests
	fDataReads
	fIndexHits
	fIndexMisses
	fMetaHits
	fMetaMisses
	fDataHits
	fDataMisses
	fDiskBusy
	fDiskOps
	fWrites
	fWriteChunks
	fLatencies
	fDiskIndexLat
	fDiskMetaLat
	fDiskDataLat
	fUnknown
)

// fieldIndex maps a raw key to its field constant; fUnknown punts to the
// stdlib (which also owns case-insensitive matching of unusual spellings).
func fieldIndex(key []byte) int {
	switch string(key) { // compiled to an alloc-free comparison
	case "device":
		return fDevice
	case "class":
		return fClass
	case "interval":
		return fInterval
	case "requests":
		return fRequests
	case "dataReads":
		return fDataReads
	case "indexHits":
		return fIndexHits
	case "indexMisses":
		return fIndexMisses
	case "metaHits":
		return fMetaHits
	case "metaMisses":
		return fMetaMisses
	case "dataHits":
		return fDataHits
	case "dataMisses":
		return fDataMisses
	case "diskBusy":
		return fDiskBusy
	case "diskOps":
		return fDiskOps
	case "writes":
		return fWrites
	case "writeChunks":
		return fWriteChunks
	case "latencies":
		return fLatencies
	case "diskIndexLat":
		return fDiskIndexLat
	case "diskMetaLat":
		return fDiskMetaLat
	case "diskDataLat":
		return fDiskDataLat
	}
	return fUnknown
}

// lineScan is the cursor over one raw NDJSON line.
type lineScan struct {
	buf []byte
	pos int
}

func (s *lineScan) ws() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

func (s *lineScan) consume(c byte) bool {
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// str reads a plain string: no backslash escapes, no control bytes, no
// non-ASCII (the stdlib replaces invalid UTF-8, so anything >= 0x80 punts).
func (s *lineScan) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.pos
	for s.pos < len(s.buf) {
		switch c := s.buf[s.pos]; {
		case c == '"':
			seg := s.buf[start:s.pos]
			s.pos++
			return seg, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		default:
			s.pos++
		}
	}
	return nil, false
}

// digits consumes a JSON integer part (no leading zeros) and reports the
// consumed range.
func (s *lineScan) digits() (start, end int, ok bool) {
	start = s.pos
	for s.pos < len(s.buf) && s.buf[s.pos] >= '0' && s.buf[s.pos] <= '9' {
		s.pos++
	}
	end = s.pos
	if end == start {
		return 0, 0, false
	}
	if s.buf[start] == '0' && end-start > 1 {
		return 0, 0, false // leading zero: invalid JSON, stdlib owns the error
	}
	return start, end, true
}

// uintVal parses an unsigned decimal field. Fractions, exponents and signs
// are left for the outer structure (or the stdlib) to reject.
func (s *lineScan) uintVal() (uint64, bool) {
	start, end, ok := s.digits()
	if !ok {
		return 0, false
	}
	var v uint64
	for _, c := range s.buf[start:end] {
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			return 0, false // overflow: stdlib reports the range error
		}
		v = v*10 + d
	}
	return v, true
}

func (s *lineScan) intVal() (int, bool) {
	neg := s.consume('-')
	u, ok := s.uintVal()
	if !ok || u > 1<<62 {
		return 0, false
	}
	if neg {
		return -int(u), true
	}
	return int(u), true
}

// pow10 holds the exactly-representable powers of ten for the fast
// decimal-to-binary path.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// floatVal parses a JSON number into a float64. Values whose mantissa fits
// 15 digits and whose scale stays within ±22 are converted exactly (one
// correctly-rounded multiply or divide of exact operands); anything wider
// takes one strconv.ParseFloat on the slice, matching the stdlib's rounding
// bit for bit in both cases.
func (s *lineScan) floatVal() (float64, bool) {
	start := s.pos
	neg := s.consume('-')
	mStart, mEnd, ok := s.digits()
	if !ok {
		return 0, false
	}
	fracDigits := 0
	if s.consume('.') {
		fs := s.pos
		for s.pos < len(s.buf) && s.buf[s.pos] >= '0' && s.buf[s.pos] <= '9' {
			s.pos++
		}
		fracDigits = s.pos - fs
		if fracDigits == 0 {
			return 0, false // "1." is invalid JSON
		}
	}
	exp := 0
	if s.pos < len(s.buf) && (s.buf[s.pos] == 'e' || s.buf[s.pos] == 'E') {
		s.pos++
		expNeg := false
		if s.pos < len(s.buf) && (s.buf[s.pos] == '+' || s.buf[s.pos] == '-') {
			expNeg = s.buf[s.pos] == '-'
			s.pos++
		}
		es := s.pos
		for s.pos < len(s.buf) && s.buf[s.pos] >= '0' && s.buf[s.pos] <= '9' {
			s.pos++
		}
		if s.pos == es {
			return 0, false // "1e" is invalid JSON
		}
		if s.pos-es > 8 {
			return s.slowFloat(start) // huge exponent: range semantics to strconv
		}
		for _, c := range s.buf[es:s.pos] {
			exp = exp*10 + int(c-'0')
		}
		if expNeg {
			exp = -exp
		}
	}
	// Fast exact path: accumulate the mantissa digits (integer + fraction)
	// and scale by a power of ten that is itself exact.
	nDigits := (mEnd - mStart) + fracDigits
	e10 := exp - fracDigits
	if nDigits > 15 || e10 < -22 || e10 > 22 {
		return s.slowFloat(start)
	}
	var m uint64
	for _, c := range s.buf[mStart:mEnd] {
		m = m*10 + uint64(c-'0')
	}
	if fracDigits > 0 {
		for _, c := range s.buf[mEnd+1 : mEnd+1+fracDigits] {
			m = m*10 + uint64(c-'0')
		}
	}
	v := float64(m)
	if e10 > 0 {
		v *= pow10[e10]
	} else if e10 < 0 {
		v /= pow10[-e10]
	}
	if neg {
		v = -v
	}
	return v, true
}

// slowFloat defers one already-syntax-checked number to strconv (a single
// small allocation for the string conversion).
func (s *lineScan) slowFloat(start int) (float64, bool) {
	v, err := strconv.ParseFloat(string(s.buf[start:s.pos]), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// floatArray parses a flat array of JSON numbers onto the end of arena and
// returns them as a capacity-clipped sub-slice of it, so a later append to
// the result copies instead of overwriting the next array.
func (s *lineScan) floatArray(arena *[]float64) ([]float64, bool) {
	if !s.consume('[') {
		return nil, false
	}
	if *arena == nil {
		*arena = make([]float64, 0, arenaFloats) // `[]` must decode non-nil
	}
	lo := len(*arena)
	s.ws()
	if !s.consume(']') {
		for {
			s.ws()
			v, ok := s.floatVal()
			if !ok {
				return nil, false
			}
			*arena = append(*arena, v)
			s.ws()
			if s.consume(',') {
				continue
			}
			if s.consume(']') {
				break
			}
			return nil, false
		}
	}
	a := *arena
	return a[lo:len(a):len(a)], true
}

// scanObservation attempts the fast parse of one trimmed NDJSON line into
// st.o, its sample arrays onto st.floats and its class label through
// st.intern. It reports false — leaving st.o and the arena's tail in an
// undefined partial state — whenever the line needs the stdlib's full
// semantics; it reports true only when the resulting Observation is exactly
// what encoding/json would have produced.
func scanObservation(raw []byte, st *decodeState) bool {
	o := &st.o
	s := lineScan{buf: raw}
	if !s.consume('{') {
		return false
	}
	s.ws()
	if s.consume('}') {
		s.ws()
		return s.pos == len(s.buf)
	}
	var seen uint32
	for {
		key, ok := s.str()
		if !ok {
			return false
		}
		f := fieldIndex(key)
		if f == fUnknown || seen&(1<<f) != 0 {
			return false // unknown or duplicate key: stdlib semantics
		}
		seen |= 1 << f
		s.ws()
		if !s.consume(':') {
			return false
		}
		s.ws()
		switch f {
		case fDevice:
			if o.Device, ok = s.intVal(); !ok {
				return false
			}
		case fClass:
			var seg []byte
			if seg, ok = s.str(); !ok {
				return false
			}
			o.Class = st.intern(seg)
		case fInterval:
			if o.Interval, ok = s.floatVal(); !ok {
				return false
			}
		case fDiskBusy:
			if o.DiskBusy, ok = s.floatVal(); !ok {
				return false
			}
		case fLatencies:
			if o.Latencies, ok = s.floatArray(&st.floats); !ok {
				return false
			}
		case fDiskIndexLat:
			if o.DiskIndexLat, ok = s.floatArray(&st.floats); !ok {
				return false
			}
		case fDiskMetaLat:
			if o.DiskMetaLat, ok = s.floatArray(&st.floats); !ok {
				return false
			}
		case fDiskDataLat:
			if o.DiskDataLat, ok = s.floatArray(&st.floats); !ok {
				return false
			}
		default:
			var u uint64
			if u, ok = s.uintVal(); !ok {
				return false
			}
			switch f {
			case fRequests:
				o.Requests = u
			case fDataReads:
				o.DataReads = u
			case fIndexHits:
				o.IndexHits = u
			case fIndexMisses:
				o.IndexMisses = u
			case fMetaHits:
				o.MetaHits = u
			case fMetaMisses:
				o.MetaMisses = u
			case fDataHits:
				o.DataHits = u
			case fDataMisses:
				o.DataMisses = u
			case fDiskOps:
				o.DiskOps = u
			case fWrites:
				o.Writes = u
			case fWriteChunks:
				o.WriteChunks = u
			}
		}
		s.ws()
		if s.consume(',') {
			s.ws()
			continue
		}
		if s.consume('}') {
			s.ws()
			return s.pos == len(s.buf) // trailing bytes: stdlib reports them
		}
		return false
	}
}
