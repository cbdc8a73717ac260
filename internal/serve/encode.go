package serve

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// This file is the /predict answer's append encoder, and the shard partial
// answer's. A cached prediction costs well under a microsecond to look up,
// so reflection-driven encoding/json would dominate the handler;
// appendPredictResponse writes the same bytes by hand. Its output is byte
// for byte what json.NewEncoder(w).Encode writes for a PredictResponse:
// field order, the omitempty rules, floats as floatEncoder formats them and
// strings escaped as appendString escapes them (HTML-safe).
// FuzzPredictResponseEncoding pins the equivalence.

// appendPredictResponse appends r's compact JSON encoding and a newline to
// b. A NaN or infinite float is an error, as it is for encoding/json.
func appendPredictResponse(b []byte, r *PredictResponse) ([]byte, error) {
	e := jsonAppender{b: b}
	e.b = append(e.b, `{"predictions":`...)
	e.predictions(r.Predictions)
	if c := r.CodedRead; c != nil {
		e.b = append(e.b, `,"codedRead":{"spec":{"n":`...)
		e.b = strconv.AppendInt(e.b, int64(c.Spec.N), 10)
		e.b = append(e.b, `,"k":`...)
		e.b = strconv.AppendInt(e.b, int64(c.Spec.K), 10)
		if c.Spec.Hedge {
			e.b = append(e.b, `,"hedge":true`...)
		}
		if c.Spec.HedgeDelaySeconds != 0 {
			e.b = append(e.b, `,"hedgeDelaySeconds":`...)
			e.float(c.Spec.HedgeDelaySeconds)
		}
		e.b = append(e.b, `},"predictions":`...)
		e.predictions(c.Predictions)
		e.b = append(e.b, `,"saturated":`...)
		e.bool(c.Saturated)
		e.b = append(e.b, '}')
	}
	if wb := r.Write; wb != nil {
		e.b = append(e.b, `,"write":{"spec":{"n":`...)
		e.b = strconv.AppendInt(e.b, int64(wb.Spec.N), 10)
		e.b = append(e.b, `,"w":`...)
		e.b = strconv.AppendInt(e.b, int64(wb.Spec.W), 10)
		e.b = append(e.b, `},"predictions":`...)
		e.predictions(wb.Predictions)
		e.b = append(e.b, `,"saturated":`...)
		e.bool(wb.Saturated)
		e.b = append(e.b, '}')
	}
	if t := r.Tenant; t != nil {
		e.b = append(e.b, `,"tenant":{"class":`...)
		e.string(t.Class)
		e.b = append(e.b, `,"rate":`...)
		e.float(t.Rate)
		e.b = append(e.b, `,"writeRate":`...)
		e.float(t.WriteRate)
		e.b = append(e.b, `,"reporting":`...)
		e.b = strconv.AppendInt(e.b, int64(t.Reporting), 10)
		e.b = append(e.b, `,"shareOfTotal":`...)
		e.float(t.ShareOfTotal)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, `,"saturated":`...)
	e.bool(r.Saturated)
	e.b = append(e.b, `,"totalRate":`...)
	e.float(r.TotalRate)
	e.b = append(e.b, `,"calibrationAgeSeconds":`...)
	e.float(r.CalibrationAge)
	e.b = append(e.b, "}\n"...)
	return e.b, e.err
}

// appendPartialResponse appends a shard partial answer's compact JSON
// encoding and a newline to b, byte for byte what encoding/json writes for
// it (FuzzPartialResponseEncoding pins the equivalence).
func appendPartialResponse(b []byte, r *PartialResponse) ([]byte, error) {
	e := jsonAppender{b: b}
	e.b = append(e.b, `{"weightedSums":`...)
	if r.WeightedSums == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, f := range r.WeightedSums {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.float(f)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"rate":`...)
	e.float(r.Rate)
	e.b = append(e.b, `,"covered":`...)
	e.b = strconv.AppendInt(e.b, int64(r.Covered), 10)
	e.b = append(e.b, `,"saturated":`...)
	e.bool(r.Saturated)
	e.b = append(e.b, `,"generation":`...)
	e.b = strconv.AppendUint(e.b, r.Generation, 10)
	e.b = append(e.b, "}\n"...)
	return e.b, e.err
}

// jsonAppender accumulates an encoding and its first error.
type jsonAppender struct {
	b   []byte
	err error
}

func (e *jsonAppender) predictions(ps []Prediction) {
	if ps == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i := range ps {
		p := &ps[i]
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, `{"sla":`...)
		e.float(p.SLA)
		e.b = append(e.b, `,"meetRatio":`...)
		e.float(p.MeetRatio)
		e.b = append(e.b, `,"saturated":`...)
		e.bool(p.Saturated)
		e.b = append(e.b, `,"cached":`...)
		e.bool(p.Cached)
		e.b = append(e.b, '}')
	}
	e.b = append(e.b, ']')
}

func (e *jsonAppender) bool(v bool) {
	e.b = strconv.AppendBool(e.b, v)
}

// float formats f like encoding/json: the shortest representation, in
// exponent form outside [1e-6, 1e21) with a two-digit negative exponent
// trimmed (e-07 becomes e-7).
func (e *jsonAppender) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		f = 0 // keep the output well-formed; the error reports the value
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		n := len(e.b)
		if n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// string quotes s like encoding/json with HTML escaping: quotes,
// backslashes, control bytes, <, > and & are escaped, invalid UTF-8 becomes
// U+FFFD, and U+2028/U+2029 are escaped for JSONP safety.
func (e *jsonAppender) string(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}
