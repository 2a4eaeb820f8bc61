// Package telemetry is frostlab's observability core: a dependency-free,
// concurrency-safe metrics registry rendering the Prometheus text
// exposition format, plus a bounded span tracer exporting Chrome
// trace-event JSON.
//
// The paper's contribution is measurement — §3.2–3.5 are about
// instrumenting a fleet well enough to trust its numbers — and this
// package turns the same discipline on frostlab itself: every plane
// (simulation kernel, collection loop, campaign pool, HTTP daemons)
// counts what it does and exposes one scrapeable surface, like the
// paper's single collection loop covered the whole tent.
//
// Design constraints, in order:
//
//   - Zero third-party dependencies: everything is stdlib, so the
//     package can be imported from the innermost hot paths without
//     dragging a client library into the build.
//   - Zero allocations on the update path: Counter.Inc, Gauge.Set and
//     Histogram.Observe are single sync/atomic operations, so the
//     instrumented simulation keeps PR 2's zero-allocs-per-tick
//     property (pinned by the AllocsPerRun tests).
//   - Registration happens at startup; the New* constructors panic on
//     invalid or duplicate names, exactly like a bad flag definition.
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use (so counters can be embedded by value in hot structs
// and registered later via Registry.CounterFunc).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down. The zero value is
// a ready-to-use gauge at 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a compare-and-swap loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into a fixed cumulative bucket layout.
// The layout is chosen at construction and never changes, so Observe is
// a bucket scan plus three atomic updates — no locks, no allocations.
type Histogram struct {
	upper  []float64 // sorted upper bounds, +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    Gauge // CAS-add float accumulator
}

// newHistogram builds a histogram over the given bucket upper bounds.
func newHistogram(buckets []float64) *Histogram {
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefBuckets is a general-purpose latency layout in seconds, from 1 ms
// to ~100 s — wide enough for both a 20-minute collection round's
// per-host dial and a multi-second simulation replicate.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// ExponentialBuckets returns n upper bounds starting at start and
// multiplying by factor. It panics on a non-positive start, a factor
// not greater than one, or n < 1 — bucket layouts are build-time
// constants, so a bad one is a programming error.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// vec is the shared child table behind CounterVec and GaugeVec: a
// label-values → child map under a read-mostly lock.
// Callers on hot paths should resolve their child once and cache the
// pointer; With itself is for setup and network-bound paths.
type vec[T any] struct {
	mu       sync.RWMutex
	make     func() *T
	children map[string]*T
	order    []string // insertion-ordered keys; render sorts
}

// with returns the child for the joined key, creating it on first use.
func (v *vec[T]) with(key string) *T {
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[key]; ok {
		return c
	}
	c = v.make()
	v.children[key] = c
	v.order = append(v.order, key)
	return c
}

// snapshot returns the keys present at call time.
func (v *vec[T]) snapshot() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, len(v.order))
	copy(out, v.order)
	return out
}

func (v *vec[T]) get(key string) *T {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.children[key]
}

// labelSep joins label values into a child key. 0xFF cannot appear in
// valid UTF-8 label values, so the join is unambiguous.
const labelSep = "\xff"

func joinLabelValues(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, s := range values {
		n += len(s)
	}
	b := make([]byte, 0, n)
	for i, s := range values {
		if i > 0 {
			b = append(b, labelSep...)
		}
		b = append(b, s...)
	}
	return string(b)
}

func splitLabelValues(key string) []string {
	var out []string
	for {
		i := indexSep(key)
		if i < 0 {
			return append(out, key)
		}
		out = append(out, key[:i])
		key = key[i+1:]
	}
}

func indexSep(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == 0xFF {
			return i
		}
	}
	return -1
}

// CounterVec is a counter family partitioned by label values (e.g. one
// retry counter per fleet host).
type CounterVec struct {
	vec vec[Counter]
}

// With returns the counter for the given label values, creating it on
// first use. The value count must match the label names the vec was
// registered with; hot paths should cache the returned pointer.
func (v *CounterVec) With(values ...string) *Counter {
	return v.vec.with(joinLabelValues(values))
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	vec vec[Gauge]
}

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.vec.with(joinLabelValues(values))
}
