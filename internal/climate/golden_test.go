package climate

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"
)

// familyBitsGolden pins every family's sample path bit for bit: the md5
// of math.Float64bits of every Conditions field, sampled each minute for
// three days from the experiment epoch at the family defaults, and again
// for three days from day 17, when the monsoon overlay's bursts have set
// in (they stay off for the first two weeks). A change
// to how the sinusoid mixtures are built or summed (draw order,
// accumulation order, a reassociated expression) moves these digests
// even where no end-to-end golden reaches the family.
var familyBitsGolden = map[string]string{
	"coastal-fog": "028559626be7cc3ed12bf4897759d476",
	"desert":      "0fe45da259f38936d7a9c37b9beac261",
	"helsinki":    "d39598f6f2e1748f60452da897ede8e5",
	"monsoon":     "e0a3f0372a220485a9facf3fe35eda9f",
	"new-mexico":  "24eea51dba5675f3f9ae5720aa26c1f2",
	"singapore":   "a32b79d387909fd475f1e77d3ef1a303",
	"sodankyla":   "85177cebf9aa31535724db085b84e20e",
	"tropical":    "af653dcd5738abad1aaccb5390c57b52",
	"wynyard":     "ffddd378d2a741c1fb72395bbfb52b2f",
}

func TestFamilyBitsGolden(t *testing.T) {
	if len(familyBitsGolden) != len(families) {
		t.Fatalf("golden covers %d families, library has %d", len(familyBitsGolden), len(families))
	}
	for _, f := range Families() {
		m, err := New(f.Name, f.Defaults, testEpoch, "bits-golden")
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		h := md5.New()
		var buf [8]byte
		put := func(v float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		for _, day := range []int{0, 17} {
			start := testEpoch.AddDate(0, 0, day)
			end := start.AddDate(0, 0, 3)
			for at := start; at.Before(end); at = at.Add(time.Minute) {
				c := m.At(at)
				put(float64(c.Temp))
				put(float64(c.RH))
				put(float64(c.Wind))
				put(float64(c.Irradiance))
				put(c.SnowfallRate)
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != familyBitsGolden[f.Name] {
			t.Errorf("%s: sample-path digest %s, want %s", f.Name, got, familyBitsGolden[f.Name])
		}
	}
}
