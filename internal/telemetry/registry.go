package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// kind is a metric family's Prometheus type.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// family is one registered metric name: its metadata plus exactly one
// of the value sources.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string

	counter    *Counter
	gauge      *Gauge
	histogram  *Histogram
	counterVec *CounterVec
	gaugeVec   *GaugeVec
	valueFn    func() float64
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Registration is mutex-guarded and intended
// for startup; rendering takes a read snapshot and may run concurrently
// with updates (atomic reads observe each instrument's latest value).
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register validates and stores a family, panicking on misuse: metric
// registration is startup wiring, and a duplicate or malformed name is
// a programming error on par with a duplicate flag.
func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("telemetry: invalid label name %q on metric %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric name %q", f.name))
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
}

// validName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// NewHistogram registers and returns a histogram over the given bucket
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	checkBuckets(name, buckets)
	h := newHistogram(buckets)
	r.register(&family{name: name, help: help, kind: kindHistogram, histogram: h})
	return h
}

// NewCounterVec registers and returns a counter family partitioned by
// the given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{}
	v.vec.children = make(map[string]*Counter)
	v.vec.make = func() *Counter { return &Counter{} }
	r.register(&family{name: name, help: help, kind: kindCounter, labels: labels, counterVec: v})
	return v
}

// NewGaugeVec registers and returns a gauge family partitioned by the
// given label names.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{}
	v.vec.children = make(map[string]*Gauge)
	v.vec.make = func() *Gauge { return &Gauge{} }
	r.register(&family{name: name, help: help, kind: kindGauge, labels: labels, gaugeVec: v})
	return v
}

// CounterFunc registers a counter whose value is read at scrape time.
// This is how pre-existing atomic counters (a Scheduler's fired-event
// count, the experiment's embedded tick counters) join a registry
// without changing their hot path.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: kindCounter, valueFn: fn})
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: kindGauge, valueFn: fn})
}

func checkBuckets(name string, buckets []float64) {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not strictly ascending", name))
		}
	}
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4), families sorted by name and series sorted by label
// values, so consecutive scrapes of unchanged values are byte-identical.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.render(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) render(b *strings.Builder) {
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteString("\n# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.kind.String())
	b.WriteByte('\n')

	switch {
	case f.counter != nil:
		writeSample(b, f.name, "", float64(f.counter.Value()))
	case f.gauge != nil:
		writeSample(b, f.name, "", f.gauge.Value())
	case f.valueFn != nil:
		writeSample(b, f.name, "", f.valueFn())
	case f.histogram != nil:
		renderHistogram(b, f.name, "", f.histogram)
	case f.counterVec != nil:
		for _, key := range sortedKeys(f.counterVec.vec.snapshot()) {
			writeSample(b, f.name, f.labelPairs(key), float64(f.counterVec.vec.get(key).Value()))
		}
	case f.gaugeVec != nil:
		for _, key := range sortedKeys(f.gaugeVec.vec.snapshot()) {
			writeSample(b, f.name, f.labelPairs(key), f.gaugeVec.vec.get(key).Value())
		}
	}
}

func sortedKeys(keys []string) []string {
	sort.Strings(keys)
	return keys
}

// labelPairs renders a child key into `name="value",…` (no braces).
func (f *family) labelPairs(key string) string {
	values := splitLabelValues(key)
	var b strings.Builder
	for i, name := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	return b.String()
}

// writeSample emits one `name{pairs} value` line. pairs is pre-rendered
// (possibly empty); extra, when non-empty, is appended after pairs —
// used for the histogram le label.
func writeSample(b *strings.Builder, name, pairs string, v float64) {
	writeSampleLE(b, name, pairs, "", v)
}

func writeSampleLE(b *strings.Builder, name, pairs, le string, v float64) {
	b.WriteString(name)
	if pairs != "" || le != "" {
		b.WriteByte('{')
		b.WriteString(pairs)
		if le != "" {
			if pairs != "" {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

func renderHistogram(b *strings.Builder, name, pairs string, h *Histogram) {
	var cum uint64
	for i, upper := range h.upper {
		cum += h.counts[i].Load()
		writeSampleLE(b, name+"_bucket", pairs, formatValue(upper), float64(cum))
	}
	cum += h.counts[len(h.upper)].Load()
	writeSampleLE(b, name+"_bucket", pairs, "+Inf", float64(cum))
	writeSample(b, name+"_sum", pairs, h.Sum())
	writeSample(b, name+"_count", pairs, float64(cum))
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
