package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// mustParse renders the registry and runs the exposition through the
// in-repo parser, so every rendering test doubles as a format check.
func mustParse(t *testing.T, r *Registry) []Sample {
	t.Helper()
	text := render(t, r)
	samples, err := ParseText(text)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	return samples
}

func TestCounterGaugeRendering(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("frostlab_test_events_total", "events processed")
	g := r.NewGauge("frostlab_test_depth", "queue depth")
	c.Add(41)
	c.Inc()
	g.Set(3.5)
	g.Add(-1)

	samples := mustParse(t, r)
	if s, ok := FindSample(samples, "frostlab_test_events_total"); !ok || s.Value != 42 {
		t.Errorf("counter sample = %+v, %v; want 42", s, ok)
	}
	if s, ok := FindSample(samples, "frostlab_test_depth"); !ok || s.Value != 2.5 {
		t.Errorf("gauge sample = %+v, %v; want 2.5", s, ok)
	}
	text := render(t, r)
	for _, want := range []string{
		"# HELP frostlab_test_events_total events processed",
		"# TYPE frostlab_test_events_total counter",
		"# TYPE frostlab_test_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestRenderingSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("zz_total", "last")
	r.NewCounter("aa_total", "first")
	v := r.NewGaugeVec("mm_gauge", "middle", "host")
	v.With("02").Set(2)
	v.With("01").Set(1)

	text := render(t, r)
	if text != render(t, r) {
		t.Error("two renders of unchanged registry differ")
	}
	ia, im, iz := strings.Index(text, "aa_total"), strings.Index(text, "mm_gauge"), strings.Index(text, "zz_total")
	if !(ia < im && im < iz) {
		t.Errorf("families not sorted by name:\n%s", text)
	}
	i1 := strings.Index(text, `mm_gauge{host="01"}`)
	i2 := strings.Index(text, `mm_gauge{host="02"}`)
	if i1 < 0 || i2 < 0 || i1 > i2 {
		t.Errorf("vec children not sorted by label value:\n%s", text)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("frostlab_test_latency_seconds", "round latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}

	samples := mustParse(t, r)
	wantCum := map[string]float64{"0.1": 1, "1": 3, "10": 4, "+Inf": 5}
	for le, want := range wantCum {
		s, ok := FindSample(samples, "frostlab_test_latency_seconds_bucket", "le", le)
		if !ok || s.Value != want {
			t.Errorf("bucket le=%q = %+v (ok=%v), want %v", le, s, ok, want)
		}
	}
	if s, ok := FindSample(samples, "frostlab_test_latency_seconds_count"); !ok || s.Value != 5 {
		t.Errorf("_count = %+v, want 5", s)
	}
}

func TestVecLabelsAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("frostlab_test_retries_total", `per-host "retry" count`, "host", "reason")
	v.With("01", `weird"value`).Add(3)
	v.With("01", "line\nbreak").Inc()
	v.With("02", `back\slash`).Inc()

	samples := mustParse(t, r)
	if s, ok := FindSample(samples, "frostlab_test_retries_total", "host", "01", "reason", `weird"value`); !ok || s.Value != 3 {
		t.Errorf("quoted label sample = %+v (ok=%v)", s, ok)
	}
	if _, ok := FindSample(samples, "frostlab_test_retries_total", "reason", "line\nbreak"); !ok {
		t.Error("newline label value did not round-trip")
	}
	if _, ok := FindSample(samples, "frostlab_test_retries_total", "reason", `back\slash`); !ok {
		t.Error("backslash label value did not round-trip")
	}
	// The same label values must return the same child.
	if v.With("01", `weird"value`).Value() != 3 {
		t.Error("With did not return the existing child")
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	var fired Counter // embedded-by-value style, like the scheduler's
	fired.Add(7)
	r.CounterFunc("frostlab_test_fired_total", "events fired", func() float64 { return float64(fired.Value()) })
	r.GaugeFunc("frostlab_test_pending", "queue depth", func() float64 { return 3 })

	samples := mustParse(t, r)
	if s, _ := FindSample(samples, "frostlab_test_fired_total"); s.Value != 7 {
		t.Errorf("counter func = %v, want 7", s.Value)
	}
	fired.Inc()
	if s, _ := FindSample(mustParse(t, r), "frostlab_test_fired_total"); s.Value != 8 {
		t.Errorf("counter func after Inc = %v, want 8", s.Value)
	}
}

func TestRegistrationPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.NewCounter("ok_total", "fine")
	expectPanic("duplicate", func() { r.NewGauge("ok_total", "dup name") })
	expectPanic("bad name", func() { r.NewCounter("0bad", "leading digit") })
	expectPanic("bad label", func() { r.NewCounterVec("lbl_total", "x", "bad-label") })
	expectPanic("reserved label", func() { r.NewCounterVec("lbl2_total", "x", "__name__") })
	expectPanic("empty buckets", func() { r.NewHistogram("h1", "x", nil) })
	expectPanic("unsorted buckets", func() { r.NewHistogram("h2", "x", []float64{1, 1}) })
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; len(exp) != 4 || exp[3] != want[3] {
		t.Errorf("ExponentialBuckets = %v", exp)
	}
}

// TestConcurrentUpdatesAndScrapes hammers every instrument type from
// many goroutines while scraping, so `go test -race` covers the whole
// concurrency story.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_events_total", "x")
	g := r.NewGauge("conc_depth", "x")
	h := r.NewHistogram("conc_lat_seconds", "x", DefBuckets)
	v := r.NewCounterVec("conc_host_total", "x", "host")

	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			host := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) / 100)
				v.With(host).Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			if _, err := ParseText(b.String()); err != nil {
				t.Errorf("mid-flight scrape invalid: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*iters {
		t.Errorf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if g.Value() != workers*iters {
		t.Errorf("gauge = %v, want %d", g.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
}

func TestParserRejectsMalformed(t *testing.T) {
	bad := []struct{ name, text string }{
		{"no value", "metric_name\n"},
		{"bad name", "0bad 1\n"},
		{"unclosed braces", `m{host="01" 1` + "\n"},
		{"unquoted label", `m{host=01} 1` + "\n"},
		{"bad escape", `m{host="\q"} 1` + "\n"},
		{"bad value", "m one\n"},
		{"duplicate series", "m 1\nm 2\n"},
		{"dup labels", `m{a="1",a="2"} 1` + "\n"},
		{"bad type", "# TYPE m rainbow\n"},
		{"double type", "# TYPE m counter\n# TYPE m gauge\n"},
		{"bucket order", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\n"},
		{"non-cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 4\n"},
	}
	for _, tc := range bad {
		if _, err := ParseText(tc.text); err == nil {
			t.Errorf("%s: parser accepted %q", tc.name, tc.text)
		}
	}
	good := "# HELP m fine\n# TYPE m counter\nm{host=\"01\"} 1\nm{host=\"02\"} 2 1700000000\n"
	if _, err := ParseText(good); err != nil {
		t.Errorf("parser rejected valid exposition: %v", err)
	}
}
