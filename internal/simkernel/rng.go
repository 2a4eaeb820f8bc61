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
	streams map[string]*rand.Rand
}

// NewRNG returns an RNG rooted at the given master seed string. The paper's
// reference experiment uses the seed "winter0910".
func NewRNG(master string) *RNG {
	return &RNG{master: master, streams: make(map[string]*rand.Rand)}
}

// Stream returns the stream with the given name, creating and seeding it on
// first use. The same (master, name) pair always yields the same sequence.
func (r *RNG) Stream(name string) *rand.Rand {
	if s, ok := r.streams[name]; ok {
		return s
	}
	h := sha256.Sum256([]byte(r.master + "\x00" + name))
	seed := int64(binary.BigEndian.Uint64(h[:8]) &^ (1 << 63))
	s := rand.New(rand.NewSource(seed))
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

// Normal draws from a normal distribution with the given mean and standard
// deviation on the named stream.
func (r *RNG) Normal(stream string, mean, stddev float64) float64 {
	return mean + stddev*r.Stream(stream).NormFloat64()
}

// Uniform draws uniformly from [lo, hi) on the named stream.
func (r *RNG) Uniform(stream string, lo, hi float64) float64 {
	return lo + (hi-lo)*r.Stream(stream).Float64()
}

// Bernoulli returns true with probability p on the named stream.
func (r *RNG) Bernoulli(stream string, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Stream(stream).Float64() < p
}

// Poisson draws a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation above 30.
func (r *RNG) Poisson(stream string, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(r.Normal(stream, mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	s := r.Stream(stream)
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Weibull draws from a Weibull distribution with the given shape k and
// scale lambda (inverse-CDF method). Weibull hazards are the standard
// lifetime model frostlab's failure engine uses for hardware components.
func (r *RNG) Weibull(stream string, shape, scale float64) float64 {
	u := r.Stream(stream).Float64()
	// Guard against u == 0, whose log is -Inf.
	for u == 0 {
		u = r.Stream(stream).Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Pick returns a uniformly random index in [0, n) on the named stream.
func (r *RNG) Pick(stream string, n int) int {
	if n <= 0 {
		return 0
	}
	return r.Stream(stream).Intn(n)
}
