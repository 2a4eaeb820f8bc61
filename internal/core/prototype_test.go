package core

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"frostlab/internal/timeseries"
)

// prototypeGoldenMD5 pins RunPrototype's sample path at ReferenceSeed:
// every point of both series plus the weekend's summary figures.
const prototypeGoldenMD5 = "850565f43319bea08f61d1b74aa877fe"

// prototypeDigest hashes a prototype result bit for bit: each series
// point as unix-nano time and float64 bits, then the summary fields.
func prototypeDigest(p *PrototypeResults) string {
	h := md5.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	for _, s := range []*timeseries.Series{p.OutsideTemp, p.CPUTemp} {
		put(uint64(s.Len()))
		for _, pt := range s.Points() {
			put(uint64(pt.At.UnixNano()))
			put(math.Float64bits(pt.Value))
		}
	}
	put(math.Float64bits(float64(p.OutsideMin)))
	put(math.Float64bits(float64(p.OutsideMean)))
	put(math.Float64bits(float64(p.CPUMin)))
	put(p.Cycles)
	if p.Survived {
		put(1)
	} else {
		put(0)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPrototypeGolden(t *testing.T) {
	p, err := RunPrototype(ReferenceSeed)
	if err != nil {
		t.Fatal(err)
	}
	if got := prototypeDigest(p); got != prototypeGoldenMD5 {
		t.Fatalf("prototype digest %s, want %s", got, prototypeGoldenMD5)
	}
}
