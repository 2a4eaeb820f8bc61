package econ

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"
)

// tariffBitsGolden pins every preset's rate path bit for bit: the md5 of
// math.Float64bits of Price and Carbon, sampled each minute for three
// days from the experiment epoch.
var tariffBitsGolden = map[string]string{
	"coal-peaker":  "d68c9360f2a98e98ea0d1f05fddb4747",
	"diurnal-peak": "f15c3c53d3cf5ef9915e3781bd86420e",
	"flat":         "6f163179944c35a154800000e9ba66fd",
	"nordic-hydro": "aca8e468515a52fcaa04be3c298f8363",
	"solar-duck":   "127d9889deb03f25e5b4ca078b4e497a",
}

func TestTariffBitsGolden(t *testing.T) {
	if len(tariffBitsGolden) != len(tariffs) {
		t.Fatalf("golden covers %d presets, library has %d", len(tariffBitsGolden), len(tariffs))
	}
	for _, tf := range Tariffs() {
		src, err := tf.Source(testEpoch, "bits-golden")
		if err != nil {
			t.Fatalf("%s: %v", tf.Name, err)
		}
		h := md5.New()
		var buf [8]byte
		put := func(v float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		end := testEpoch.AddDate(0, 0, 3)
		for at := testEpoch; at.Before(end); at = at.Add(time.Minute) {
			r := src.At(at)
			put(r.Price)
			put(r.Carbon)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tariffBitsGolden[tf.Name] {
			t.Errorf("%s: rate-path digest %s, want %s", tf.Name, got, tariffBitsGolden[tf.Name])
		}
	}
}
