package simkernel

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
)

// RNG is a collection of named, independently seeded random streams. Each
// subsystem of an experiment (weather noise, failure sampling, workload
// fuzz, ...) draws from its own stream, so adding draws to one subsystem
// never perturbs the sample path of another. Stream seeds are derived from
// the experiment's master seed string and the stream name with SHA-256, so
// the mapping is stable across runs, platforms, and Go versions.
type RNG struct {
	master  string
	streams map[string]*Stream
}

// NewRNG returns an RNG rooted at the given master seed string. The paper's
// reference experiment uses the seed "winter0910".
func NewRNG(master string) *RNG {
	return &RNG{master: master, streams: make(map[string]*Stream)}
}

// Stream returns the handle on the stream with the given name, creating it
// on first use; every call with the same name returns the same handle, and
// the same (master, name) pair always yields the same sequence. A caller
// that draws repeatedly for one subject keeps the handle, so its draws do
// no name lookups.
func (r *RNG) Stream(name string) *Stream {
	if s, ok := r.streams[name]; ok {
		return s
	}
	s := &Stream{rng: r, name: name}
	r.streams[name] = s
	return s
}

// PCGStream returns an independently seeded math/rand/v2 PCG generator
// for the given name, with the same SHA-256 (master, name) derivation as
// Stream. Two differences make it the right source for wide fan-out:
// seeding is O(1) (classic math/rand pays a ~600-step seed scramble per
// stream, which at 100k streams is more than an entire simulated winter),
// and the generator is NOT memoized — each call returns a fresh instance
// replaying the same sequence, so thousands of concurrently-stepping
// shards can own private streams with no shared map.
func (r *RNG) PCGStream(name string) *randv2.Rand {
	h := sha256.Sum256([]byte(r.master + "\x00" + name))
	return randv2.New(randv2.NewPCG(
		binary.BigEndian.Uint64(h[:8]), binary.BigEndian.Uint64(h[8:16])))
}

// Stream is a handle on one named random stream and carries the draws.
// Its generator is seeded on the first draw that consumes a value, so a
// handle taken for a subject that never draws (a zero hazard, an ECC host)
// costs neither the seed derivation nor generator state.
type Stream struct {
	rng  *RNG
	name string
	src  *rand.Rand
}

// rand returns the stream's generator, seeding it on first use. The
// seeding is out of line so the common path inlines into every draw.
func (s *Stream) rand() *rand.Rand {
	if s.src == nil {
		s.seedSource()
	}
	return s.src
}

func (s *Stream) seedSource() {
	h := sha256.Sum256([]byte(s.rng.master + "\x00" + s.name))
	s.src = rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(h[:8]) &^ (1 << 63))))
}

// Normal draws from a normal distribution with the given mean and standard
// deviation.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rand().NormFloat64()
}

// Uniform draws uniformly from [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rand().Float64()
}

// Bernoulli returns true with probability p. A p outside (0, 1) decides
// without consuming a value.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rand().Float64() < p
}

// Poisson draws a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation above 30.
func (s *Stream) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(s.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	src := s.rand()
	for {
		p *= src.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Weibull draws from a Weibull distribution with the given shape k and
// scale lambda (inverse-CDF method). Weibull hazards are the standard
// lifetime model frostlab's failure engine uses for hardware components.
func (s *Stream) Weibull(shape, scale float64) float64 {
	src := s.rand()
	u := src.Float64()
	// Guard against u == 0, whose log is -Inf.
	for u == 0 {
		u = src.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Pick returns a uniformly random index in [0, n); n <= 0 gives 0 without
// consuming a value.
func (s *Stream) Pick(n int) int {
	if n <= 0 {
		return 0
	}
	return s.rand().Intn(n)
}
