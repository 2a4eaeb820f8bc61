package weather

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReadTraceCSV hardens the real-data import path: arbitrary CSV input
// must either parse into a usable trace or fail cleanly.
func FuzzReadTraceCSV(f *testing.F) {
	var good bytes.Buffer
	m := ReferenceWinter0910("fuzz")
	if err := WriteTraceCSV(&good, m, ExperimentEpoch, ExperimentEpoch.Add(2*3600e9), 600e9); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\n"))
	f.Add([]byte("a,b,c\n1,2,3\n"))
	f.Add([]byte("a,b\n1,2\n"))
	f.Add([]byte("timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\n" +
		"2010-02-12 00:00:00,45.00,250.0,-3.00,1e309,NaN\n"))
	f.Add([]byte("timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\n" +
		"2010-02-12 00:00:00,-9.20,84.0,3.80,0.0,0.00\n" +
		"2010-02-12 01:00:00,-9.90,85.5,4.10,0.0,0.40\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTraceCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A parsed trace must answer queries with physical humidity.
		first, last := tr.Span()
		mid := first.Add(last.Sub(first) / 2)
		for _, at := range []time.Time{first, mid, last} {
			if c := tr.At(at); !c.RH.Valid() {
				t.Fatalf("parsed trace yields invalid RH %v at %v", c.RH, at)
			}
		}
	})
}
