package simkernel

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// zeroFirstSource is a rand.Source whose first Int63 is 0, so Float64's
// first value is exactly 0; afterwards it defers to a seeded source. It is
// the only way to reach Weibull's zero-redraw branch deterministically.
type zeroFirstSource struct {
	served bool
	rest   rand.Source
}

func (z *zeroFirstSource) Int63() int64 {
	if !z.served {
		z.served = true
		return 0
	}
	return z.rest.Int63()
}

func (z *zeroFirstSource) Seed(seed int64) { z.rest.Seed(seed) }

// drawsDigest feeds one fixed, interleaved sequence of every draw kind on
// several streams of rng (plus a zero-first stream named "zero") into an
// md5 and returns its hex digest.
func drawsDigest(rng *RNG) string {
	rng.streams["zero"] = &Stream{src: rand.New(&zeroFirstSource{rest: rand.NewSource(7)})}
	h := md5.New()
	f := func(v float64) { binary.Write(h, binary.BigEndian, math.Float64bits(v)) }
	i := func(v int) { binary.Write(h, binary.BigEndian, int64(v)) }
	b := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	names := []string{"host/01", "disk/01/0", "mem/15", "lascar/noise_t", "fuzz/06"}
	for round := 0; round < 40; round++ {
		for k, name := range names {
			// Resolving the name on every round also covers the
			// memoised handle.
			s := rng.Stream(name)
			x := float64(round*len(names) + k)
			b(s.Bernoulli(0))
			b(s.Bernoulli(1))
			b(s.Bernoulli(-0.5))
			b(s.Bernoulli(0.3))
			b(s.Bernoulli(1e-6))
			f(s.Normal(x, 1+x/10))
			f(s.Normal(-3, 0))
			f(s.Uniform(-x, x+1))
			f(s.Uniform(2, 2))
			// Poisson: both the Knuth branch (mean <= 30) and the normal
			// approximation (mean > 30), the boundary and non-positive means.
			for _, mean := range []float64{0, -1, 1e-9, 0.5, 4, 29.999, 30, 30.001, 60, 1e4} {
				i(s.Poisson(mean))
			}
			f(s.Weibull(1, 100))
			f(s.Weibull(2.5, 170))
			f(s.Weibull(0.7, 50))
			for _, n := range []int{-3, 0, 1, 2, 7, 120, 1<<31 - 1, 1 << 31, 1 << 40} {
				i(s.Pick(n))
			}
		}
	}
	// The zero-first stream: Weibull redraws past the leading 0, then the
	// stream carries on with every kind.
	z := rng.Stream("zero")
	f(z.Weibull(1.5, 10))
	f(z.Normal(0, 1))
	i(z.Poisson(3))
	i(z.Pick(9))
	b(z.Bernoulli(0.5))
	f(z.Uniform(0, 1))
	return hex.EncodeToString(h.Sum(nil))
}

// TestRNGDrawsGolden pins the value of every draw kind on several named
// streams, bit for bit, to the digest recorded with the string-keyed draw
// methods that the Stream handles replaced. Any change to stream seeding, to a draw's arithmetic or to
// how many source values a draw consumes moves it.
func TestRNGDrawsGolden(t *testing.T) {
	const want = "60a35d2bddc9c83456cb6b80327947c1"
	if got := drawsDigest(NewRNG("winter0910")); got != want {
		t.Errorf("draws digest = %s, want %s", got, want)
	}
}
