package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"frostlab/internal/telemetry"
	"frostlab/internal/weather"
)

// span is one timed call the benchmark made into the program. Spans of one
// op share its id; parent is the index of the enclosing span, or -1.
type span struct {
	name   string
	op     int
	parent int
	start  time.Time
	dur    time.Duration
}

// tracer keeps the spans of a traced run in memory. A nil tracer records
// nothing, so untraced runs pay no more than a nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ops   int
}

// newOp returns a fresh op id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, op, parent int) int {
	return t.add(name, op, parent, time.Now(), 0)
}

// end closes the span begin opened.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[i].dur = now.Sub(t.spans[i].start)
	t.mu.Unlock()
}

// add records a span timed elsewhere and returns its index.
func (t *tracer) add(name string, op, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: start, dur: d})
	return len(t.spans) - 1
}

// writeSelfTimes prints, per span name, how often it ran, its total time
// and its self time: the span's duration minus the part of it that its
// child spans cover. Parallel children (campaign replicates) are merged
// before subtracting, so self time never goes negative.
func (t *tracer) writeSelfTimes(out io.Writer) {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	type row struct {
		name        string
		n           int
		total, self time.Duration
	}
	rows := map[string]*row{}
	var all time.Duration
	for i, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &row{name: s.name}
			rows[s.name] = r
		}
		r.n++
		r.total += s.dur
		self := s.dur - t.covered(s, children[i])
		r.self += self
		all += self
	}
	sorted := make([]*row, 0, len(rows))
	for _, r := range rows {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].self > sorted[j].self })
	fmt.Fprintf(out, "# %-18s %6s %12s %12s %7s\n", "span", "n", "total_s", "self_s", "self%")
	for _, r := range sorted {
		fmt.Fprintf(out, "# %-18s %6d %12.6f %12.6f %6.1f%%\n",
			r.name, r.n, r.total.Seconds(), r.self.Seconds(), 100*r.self.Seconds()/all.Seconds())
	}
}

// covered is the length of the union of the child intervals, clipped to s.
func (t *tracer) covered(s span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		lo, hi := c.start, c.start.Add(c.dur)
		if lo.Before(s.start) {
			lo = s.start
		}
		if end := s.start.Add(s.dur); hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			sum += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		sum += cur.hi.Sub(cur.lo)
	}
	return sum
}

// writeChrome exports the spans as Chrome trace-event JSON, one row per
// op, through the program's own tracer.
func (t *tracer) writeChrome(path string) error {
	ct := telemetry.NewTracer(len(t.spans) + 1)
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.name, ".")
		ct.Span(s.name, layer, s.op, s.start, s.dur)
		ct.SetThreadName(s.op, fmt.Sprintf("op %d", s.op))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ct.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// timedWeather wraps the weather model an engine is given and counts and
// times every call into it. Clones made by the sharded engine share the
// counters, so one wrapper accounts for all shards.
type timedWeather struct {
	inner weather.Model
	calls *atomic.Int64
	busy  *atomic.Int64 // nanoseconds
}

func newTimedWeather(m weather.Model) *timedWeather {
	return &timedWeather{inner: m, calls: new(atomic.Int64), busy: new(atomic.Int64)}
}

func (w *timedWeather) At(t time.Time) weather.Conditions {
	t0 := time.Now()
	c := w.inner.At(t)
	w.busy.Add(int64(time.Since(t0)))
	w.calls.Add(1)
	return c
}

// CloneModel implements weather.Cloner, which the sharded engine requires.
func (w *timedWeather) CloneModel() weather.Model {
	return &timedWeather{inner: w.inner.(weather.Cloner).CloneModel(), calls: w.calls, busy: w.busy}
}

func (w *timedWeather) busySeconds() float64 { return time.Duration(w.busy.Load()).Seconds() }

// layer is one per-layer metric. An exact metric is a count that repeats
// exactly for a given seed; it is reported from the first timed unit.
// Every other metric is the median over the traced units, with times in
// reference seconds like the end-to-end ones.
type layer struct {
	name, unit string
	exact      bool
}

// layers lists the per-layer metrics in print order. A layer a workload
// does not exercise reads 0 there; every timing is taken on all five.
var layers = []layer{
	{"engine.run_s", "s", false},
	{"engine.ns_per_host_hour", "ns", false},
	{"output.save_s", "s", false},
	{"core.save_mb", "MB", true},
	{"core.events", "count", true},
	{"weather.calls", "count", true},
	{"weather.share", "ratio", false},
	{"simkernel.events", "count", true},
	{"workload.installs", "count", true},
	{"workload.cycles", "count", true},
	{"workload.bad_hashes", "count", true},
	{"workload.pack_share", "ratio", false},
	{"monitor.rounds", "count", true},
	{"monitor.host_collections", "count", true},
	{"monitor.host_misses", "count", true},
	{"monitor.literal_mb", "MB", true},
	{"monitor.total_mb", "MB", true},
	{"monitor.literal_ratio", "ratio", true},
	{"monitor.coverage", "ratio", true},
	{"rules.evals", "count", true},
	{"rules.transitions", "count", true},
	{"rules.incidents", "count", true},
	{"campaign.busy_frac", "ratio", false},
	{"campaign.aggregate_share", "ratio", false},
	{"econ.cells", "count", true},
	{"econ.site_ticks", "count", true},
	{"go.mallocs_per_op", "count", false},
	{"go.gc_per_op", "count", false},
	{"go.rss_peak_mb", "MB", false},
	{"trace.overhead", "ratio", false},
	{"host.calib_s", "s", false},
}

func layerOrder() []string {
	names := make([]string, len(layers))
	for i, l := range layers {
		names[i] = l.name
	}
	return names
}

// layerMetrics reduces the traced units' layer values to one metric each.
// The caller sets the process-wide ones: trace.overhead, host.calib_s and
// go.rss_peak_mb.
func layerMetrics(units []unitResult) map[string]metric {
	ms := make(map[string]metric, len(layers))
	for _, l := range layers {
		if l.exact {
			ms[l.name] = metric{units[0].layers[l.name], l.unit}
			continue
		}
		vals := make([]float64, len(units))
		for i, u := range units {
			vals[i] = u.layers[l.name]
			if l.unit == "s" || l.unit == "ns" {
				vals[i] *= u.scale
			}
		}
		ms[l.name] = metric{median(vals), l.unit}
	}
	return ms
}

// counters reads every sample of a registry, keyed by metric name.
func counters(reg *telemetry.Registry) (map[string]float64, error) {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	samples, err := telemetry.ParseText(b.String())
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.Name] = s.Value
	}
	return out, nil
}
