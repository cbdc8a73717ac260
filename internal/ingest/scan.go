package ingest

import "strconv"

// Hand-rolled NDJSON line scanner. The stdlib path costs a decoder, a
// reader and reflection machinery per line; this scanner walks the flat
// Observation object once with zero allocations for the common shape
// (known ASCII keys, plain numbers, no escapes), reading each byte about
// once: keys are matched as whole quoted literals in encoder order, and
// numbers are accumulated while their digits are scanned. It is
// deliberately conservative: the moment a line deviates from that shape —
// an unknown or duplicated key, an escape sequence, non-ASCII text, null,
// nesting, trailing data — it reports failure and the caller re-parses the
// line through encoding/json, so accept/reject behavior and error text are
// byte-for-byte the stdlib's (pinned by FuzzNDJSONScannerEquivalence).

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

// keyLits holds every field's key as its quoted JSON literal, indexed by
// field. The field constants follow the struct's declaration order, which
// is the order encoding/json emits the keys in.
var keyLits = [fUnknown]string{
	fDevice:       `"device"`,
	fClass:        `"class"`,
	fInterval:     `"interval"`,
	fRequests:     `"requests"`,
	fDataReads:    `"dataReads"`,
	fIndexHits:    `"indexHits"`,
	fIndexMisses:  `"indexMisses"`,
	fMetaHits:     `"metaHits"`,
	fMetaMisses:   `"metaMisses"`,
	fDataHits:     `"dataHits"`,
	fDataMisses:   `"dataMisses"`,
	fDiskBusy:     `"diskBusy"`,
	fDiskOps:      `"diskOps"`,
	fWrites:       `"writes"`,
	fWriteChunks:  `"writeChunks"`,
	fLatencies:    `"latencies"`,
	fDiskIndexLat: `"diskIndexLat"`,
	fDiskMetaLat:  `"diskMetaLat"`,
	fDiskDataLat:  `"diskDataLat"`,
}

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

// ws skips insignificant whitespace. The encoder writes none, so the common
// case is one comparison.
func (s *lineScan) ws() {
	for s.pos < len(s.buf) && s.buf[s.pos] <= ' ' {
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

// key reads an object key and reports its field. The key of field guess is
// tried first, as one comparison against its quoted literal (the literal's
// closing quote keeps "writes" from matching "writeChunks"); any other
// spelling is read as a plain string and looked up, so an omitted or
// reordered key costs a lookup, never a wrong match.
func (s *lineScan) key(guess int) (int, bool) {
	if guess < fUnknown {
		lit := keyLits[guess]
		if end := s.pos + len(lit); end <= len(s.buf) && string(s.buf[s.pos:end]) == lit {
			s.pos = end
			return guess, true
		}
	}
	k, ok := s.str()
	if !ok {
		return fUnknown, false
	}
	return fieldIndex(k), true
}

// uintVal parses an unsigned decimal field in one pass. Fractions,
// exponents and signs are left for the outer structure (or the stdlib) to
// reject; so are leading zeros (invalid JSON) and values past 2^64-1 (the
// stdlib reports the range error).
func (s *lineScan) uintVal() (uint64, bool) {
	buf, i := s.buf, s.pos
	var v uint64
	for ; i < len(buf); i++ {
		d := uint64(buf[i] - '0')
		if d > 9 {
			break
		}
		// Nineteen digits cannot overflow; from the twentieth on, check.
		if i-s.pos >= 19 && v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if n := i - s.pos; n == 0 || (n > 1 && buf[s.pos] == '0') {
		return 0, false
	}
	s.pos = i
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

// floatVal parses a JSON number into a float64 in one pass, accumulating
// the integer and fraction digits into one mantissa as it scans them.
// Values whose mantissa fits 15 digits and whose scale stays within ±22 are
// converted exactly (one correctly-rounded multiply or divide of exact
// operands); anything wider takes one strconv.ParseFloat on the slice,
// matching the stdlib's rounding bit for bit in both cases.
func (s *lineScan) floatVal() (float64, bool) {
	buf, i := s.buf, s.pos
	start := i
	neg := i < len(buf) && buf[i] == '-'
	if neg {
		i++
	}
	var m uint64 // wraps past 19 digits, but past 15 the value goes to strconv
	is := i
	for ; i < len(buf); i++ {
		d := uint64(buf[i] - '0')
		if d > 9 {
			break
		}
		m = m*10 + d
	}
	if n := i - is; n == 0 || (n > 1 && buf[is] == '0') {
		return 0, false // no digits, or a leading zero: invalid JSON
	}
	nd, frac := i-is, 0
	if i < len(buf) && buf[i] == '.' {
		i++
		fs := i
		for ; i < len(buf); i++ {
			d := uint64(buf[i] - '0')
			if d > 9 {
				break
			}
			m = m*10 + d
		}
		if frac = i - fs; frac == 0 {
			return 0, false // "1." is invalid JSON
		}
		nd += frac
	}
	exp := 0
	if i < len(buf) && buf[i]|0x20 == 'e' {
		i++
		expNeg := false
		if i < len(buf) && (buf[i] == '+' || buf[i] == '-') {
			expNeg = buf[i] == '-'
			i++
		}
		es := i
		for ; i < len(buf); i++ {
			d := int(buf[i]) - '0'
			if d < 0 || d > 9 {
				break
			}
			exp = exp*10 + d
		}
		switch {
		case i == es:
			return 0, false // "1e" is invalid JSON
		case i-es > 8:
			s.pos = i
			return s.slowFloat(start) // huge exponent: range semantics to strconv
		case expNeg:
			exp = -exp
		}
	}
	s.pos = i
	e10 := exp - frac
	if nd > 15 || e10 < -22 || e10 > 22 {
		return s.slowFloat(start)
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
	a := *arena
	if a == nil {
		a = make([]float64, 0, arenaFloats) // `[]` must decode non-nil
	}
	lo := len(a)
	s.ws()
	if !s.consume(']') {
		for {
			s.ws()
			v, ok := s.floatVal()
			if !ok {
				return nil, false
			}
			a = append(a, v)
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
	*arena = a
	return a[lo:len(a):len(a)], true
}

// scanObservation attempts the fast parse of one trimmed NDJSON line into
// the zeroed *o, its sample arrays onto st.floats and its class label
// through st.intern. It reports false — leaving *o and the arena's tail in
// an undefined partial state — whenever the line needs the stdlib's full
// semantics; it reports true only when the resulting Observation is exactly
// what encoding/json would have produced.
func scanObservation(raw []byte, o *Observation, st *decodeState) bool {
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
	guess := fDevice
	for {
		f, ok := s.key(guess)
		if !ok || f == fUnknown || seen&(1<<f) != 0 {
			return false // unknown or duplicate key: stdlib semantics
		}
		seen |= 1 << f
		guess = f + 1
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
