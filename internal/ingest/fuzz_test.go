package ingest

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzNDJSONDecode hammers the streaming decoder with arbitrary byte
// streams and checks its invariants: no panic, deterministic outcomes,
// accepted counts that match what emit actually saw, and a clean round trip
// through EncodeNDJSON for everything that decoded.
func FuzzNDJSONDecode(f *testing.F) {
	f.Add([]byte(`{"device":0,"interval":1,"requests":5}` + "\n"))
	f.Add([]byte(`{"device":1,"interval":0.5}` + "\n" + `{"device":2,"interval":2,"latencies":[0.1,0.2]}` + "\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{not json}`))
	f.Add([]byte(`{"device":9,"interval":1}`))
	f.Add([]byte(`{"device":0,"interval":1} trailing`))
	f.Add([]byte(`{"device":0,"interval":1,"unknown":true}`))
	f.Add([]byte(strings.Repeat(`{"device":3,"interval":1}`+"\n", 50)))
	f.Fuzz(func(t *testing.T, data []byte) {
		const devices = 4
		run := func() (int, []Observation, error) {
			var got []Observation
			n, err := DecodeNDJSON(bytes.NewReader(data), devices, 7, func(chunk []Observation) error {
				got, _ = AppendOwned(got, nil, chunk) // the chunk's arrays are the decoder's
				return nil
			})
			return n, got, err
		}
		n1, got1, err1 := run()
		n2, _, err2 := run()
		if n1 != n2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic decode: (%d,%v) vs (%d,%v)", n1, err1, n2, err2)
		}
		if n1 != len(got1) {
			t.Fatalf("accepted %d but emit saw %d observations", n1, len(got1))
		}
		for i, o := range got1 {
			if err := o.Validate(devices); err != nil {
				t.Fatalf("emitted observation %d fails validation: %v", i, err)
			}
		}
		if len(got1) == 0 {
			return
		}
		// Round trip: re-encoding what decoded and decoding again must be
		// lossless and error-free.
		var buf bytes.Buffer
		if err := EncodeNDJSON(&buf, got1); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		var again []Observation
		n3, err := DecodeNDJSON(&buf, devices, 7, func(chunk []Observation) error {
			again = append(again, chunk...)
			return nil
		})
		if err != nil || n3 != len(got1) {
			t.Fatalf("round trip: n=%d err=%v, want %d,nil", n3, err, len(got1))
		}
		for i := range again {
			if again[i].Device != got1[i].Device || again[i].Requests != got1[i].Requests ||
				again[i].Interval != got1[i].Interval {
				t.Fatalf("round trip mismatch at %d: %+v vs %+v", i, again[i], got1[i])
			}
		}
	})
}
