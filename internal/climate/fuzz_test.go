package climate

import (
	"strings"
	"testing"

	"frostlab/internal/units"
	"frostlab/internal/weather"
)

// FuzzReadCSV drives recorded-trace import, the path by which station data
// takes a site slot in place of a catalogue family, with arbitrary byte
// soup. The invariant: never panic, and any trace that parses must yield
// physically clamped conditions across its whole span.
func FuzzReadCSV(f *testing.F) {
	f.Add("timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\n" +
		"2010-02-12 00:00:00,-9.20,84.0,3.80,0.0,0.00\n" +
		"2010-02-12 01:00:00,-9.90,85.5,4.10,0.0,0.40\n")
	f.Add("timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\n")
	f.Add("timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\n" +
		"2010-02-12 00:00:00,45.00,250.0,-3.00,1e309,NaN\n")
	f.Add("a,b\n1,2\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := weather.ReadTraceCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		lo, hi := tr.Span()
		mid := lo.Add(hi.Sub(lo) / 2)
		for _, c := range []units.RelHumidity{tr.At(lo).RH, tr.At(mid).RH, tr.At(hi).RH} {
			if !c.Valid() {
				t.Fatalf("parsed trace yields unclamped RH %v", c)
			}
		}
	})
}
