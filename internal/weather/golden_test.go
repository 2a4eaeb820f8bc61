package weather

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"
)

// referenceBitsGolden pins the reference model's sample path bit for bit:
// the md5 of math.Float64bits of every Conditions field of
// ReferenceWinter0910 at the reproduction's reference seed, sampled each
// minute from the prototype epoch (Feb 12) to the end of the normal phase
// (Mar 26). A change to how the calendar trig, the harmonic mixtures or
// the cold snaps are computed moves this digest even where an end-to-end
// golden would round the change away.
const referenceBitsGolden = "ee1b09c5abe2c54b66e29a451e4fd5ee"

func TestReferenceBitsGolden(t *testing.T) {
	m := ReferenceWinter0910("winter0910-r115")
	end := time.Date(2010, time.March, 26, 0, 0, 0, 0, time.UTC)
	h := md5.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for at := ExperimentEpoch; at.Before(end); at = at.Add(time.Minute) {
		c := m.At(at)
		put(float64(c.Temp))
		put(float64(c.RH))
		put(float64(c.Wind))
		put(float64(c.Irradiance))
		put(c.SnowfallRate)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != referenceBitsGolden {
		t.Errorf("reference sample-path digest %s, want %s", got, referenceBitsGolden)
	}
}
