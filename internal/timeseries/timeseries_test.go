package timeseries

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)

func mustAppend(t *testing.T, s *Series, at time.Time, v float64) {
	t.Helper()
	if err := s.Append(at, v); err != nil {
		t.Fatal(err)
	}
}

func TestAppendOrdering(t *testing.T) {
	s := New("x", "°C")
	mustAppend(t, s, t0, 1)
	mustAppend(t, s, t0, 2) // equal timestamps allowed
	mustAppend(t, s, t0.Add(time.Minute), 3)
	if err := s.Append(t0, 4); err == nil {
		t.Error("out-of-order append accepted")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestFirstLast(t *testing.T) {
	s := New("x", "")
	if _, err := s.First(); err == nil {
		t.Error("First on empty series should fail")
	}
	if _, err := s.Last(); err == nil {
		t.Error("Last on empty series should fail")
	}
	mustAppend(t, s, t0, 5)
	mustAppend(t, s, t0.Add(time.Hour), 7)
	f, _ := s.First()
	l, _ := s.Last()
	if f.Value != 5 || l.Value != 7 {
		t.Errorf("First/Last = %v/%v", f, l)
	}
}

func TestSummarize(t *testing.T) {
	s := New("temp", "°C")
	vals := []float64{-10.2, -9.2, -8.0, -9.4, -22.0}
	for i, v := range vals {
		mustAppend(t, s, t0.Add(time.Duration(i)*time.Hour), v)
	}
	sum, err := s.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 5 {
		t.Errorf("N = %d", sum.N)
	}
	if sum.Min != -22 || !sum.MinAt.Equal(t0.Add(4*time.Hour)) {
		t.Errorf("Min %v at %v", sum.Min, sum.MinAt)
	}
	if sum.Max != -8 {
		t.Errorf("Max %v", sum.Max)
	}
	wantMean := (-10.2 - 9.2 - 8.0 - 9.4 - 22.0) / 5
	if math.Abs(sum.Mean-wantMean) > 1e-9 {
		t.Errorf("Mean %v, want %v", sum.Mean, wantMean)
	}
	if sum.Stddev <= 0 {
		t.Errorf("Stddev %v", sum.Stddev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := New("x", "").Summarize(); err == nil {
		t.Error("empty Summarize should fail")
	}
}

func TestSlice(t *testing.T) {
	s := New("x", "")
	for i := 0; i < 10; i++ {
		mustAppend(t, s, t0.Add(time.Duration(i)*time.Hour), float64(i))
	}
	sub := s.Slice(t0.Add(2*time.Hour), t0.Add(5*time.Hour))
	if sub.Len() != 3 {
		t.Fatalf("Slice len %d, want 3", sub.Len())
	}
	if sub.At(0).Value != 2 || sub.At(2).Value != 4 {
		t.Errorf("slice values %v..%v", sub.At(0).Value, sub.At(2).Value)
	}
}

func TestSliceEmptyRange(t *testing.T) {
	s := New("x", "")
	mustAppend(t, s, t0, 1)
	if got := s.Slice(t0.Add(time.Hour), t0.Add(2*time.Hour)); got.Len() != 0 {
		t.Errorf("empty range gave %d points", got.Len())
	}
}

func TestResampleMeans(t *testing.T) {
	s := New("x", "")
	// Two samples in each of three 10-minute buckets.
	for i := 0; i < 6; i++ {
		mustAppend(t, s, t0.Add(time.Duration(i*5)*time.Minute), float64(i))
	}
	r, err := s.Resample(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("resampled to %d buckets, want 3", r.Len())
	}
	want := []float64{0.5, 2.5, 4.5}
	for i, w := range want {
		if r.At(i).Value != w {
			t.Errorf("bucket %d = %v, want %v", i, r.At(i).Value, w)
		}
	}
}

func TestResampleOmitsEmptyBuckets(t *testing.T) {
	s := New("x", "")
	mustAppend(t, s, t0, 1)
	mustAppend(t, s, t0.Add(time.Hour), 2) // 5 empty 10-min buckets between
	r, err := s.Resample(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Errorf("expected empty buckets omitted, got %d buckets", r.Len())
	}
}

func TestResampleRejectsBadWidth(t *testing.T) {
	if _, err := New("x", "").Resample(0); err == nil {
		t.Error("zero width accepted")
	}
}

func TestResamplePreservesMeanApprox(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		s := New("x", "")
		for i, v := range raw {
			// uniform spacing: every bucket equally populated except the tail
			if err := s.Append(t0.Add(time.Duration(i)*time.Minute), float64(v)); err != nil {
				return false
			}
		}
		r, err := s.Resample(time.Minute) // width == spacing: identity
		if err != nil || r.Len() != s.Len() {
			return false
		}
		a, _ := s.Summarize()
		b, _ := r.Summarize()
		return math.Abs(a.Mean-b.Mean) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaps(t *testing.T) {
	s := New("x", "")
	mustAppend(t, s, t0, 1)
	mustAppend(t, s, t0.Add(5*time.Minute), 1)
	mustAppend(t, s, t0.Add(3*time.Hour), 1) // gap
	mustAppend(t, s, t0.Add(3*time.Hour+5*time.Minute), 1)
	gaps := s.gaps(30 * time.Minute)
	if len(gaps) != 1 {
		t.Fatalf("found %d gaps, want 1", len(gaps))
	}
	if gaps[0].Duration() != 2*time.Hour+55*time.Minute {
		t.Errorf("gap duration %v", gaps[0].Duration())
	}
}

func TestRemoveOutliers(t *testing.T) {
	s := New("lascar", "°C")
	// Steady -8°C trace with one +21°C indoor-readout spike in the middle.
	for i := 0; i < 21; i++ {
		v := -8.0 + 0.1*float64(i%3)
		if i == 10 {
			v = 21 // logger carried indoors
		}
		mustAppend(t, s, t0.Add(time.Duration(i)*5*time.Minute), v)
	}
	clean, removed := s.RemoveOutliers(5, 4)
	if len(removed) != 1 {
		t.Fatalf("removed %d points, want 1 (the indoor spike)", len(removed))
	}
	if removed[0].Value != 21 {
		t.Errorf("removed %v, want the 21°C spike", removed[0])
	}
	if clean.Len() != 20 {
		t.Errorf("clean length %d, want 20", clean.Len())
	}
}

func TestRemoveOutliersKeepsShortSeries(t *testing.T) {
	s := New("x", "")
	mustAppend(t, s, t0, 1)
	mustAppend(t, s, t0.Add(time.Minute), 100)
	clean, removed := s.RemoveOutliers(5, 3)
	if clean.Len() != 2 || removed != nil {
		t.Error("short series should pass through untouched")
	}
}

// removeOutliersSorting is RemoveOutliers as it was before the sorted
// window: each sample copies its neighbours and sorts them twice, once for
// the median and once for the MAD.
func removeOutliersSorting(pts []Point, window int, zmax float64) (kept, removed []Point) {
	if window < 1 || len(pts) < 2*window+1 {
		return append([]Point(nil), pts...), nil
	}
	buf := make([]float64, 0, 2*window+1)
	for i, p := range pts {
		buf = buf[:0]
		for j := max(i-window, 0); j <= min(i+window, len(pts)-1); j++ {
			if j != i {
				buf = append(buf, pts[j].Value)
			}
		}
		med := median(buf)
		for k, v := range buf {
			buf[k] = math.Abs(v - med)
		}
		sd := 1.4826 * median(buf)
		if sd < 1e-9 {
			sd = 1e-9
		}
		if math.Abs(p.Value-med)/sd > zmax {
			removed = append(removed, p)
			continue
		}
		kept = append(kept, p)
	}
	return kept, removed
}

// samePoints reports whether a and b hold the same points, values bit for
// bit.
func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].At.Equal(b[i].At) || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// TestRemoveOutliersMatchesSorting holds the sorted-window cleaning to the
// sorting version on random series: windows 1–7, lengths from below the
// 2w+1 minimum to well past it (so the edge windows and the full ones
// both occur), values on a 0.5 grid so ties are common, and ±0, ±Inf and
// NaN mixed in. Every kept and removed point must match bit for bit.
func TestRemoveOutliersMatchesSorting(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	for trial := 0; trial < trials; trial++ {
		window := 1 + rng.Intn(7)
		n := rng.Intn(2*window + 30)
		special := rng.Float64() * 0.3 // share of special values
		spread := 1 + rng.Intn(12)     // grid steps, few for many ties
		s := New("prop", "")
		for i := 0; i < n; i++ {
			v := 0.5 * float64(rng.Intn(2*spread+1)-spread)
			if rng.Float64() < special {
				v = specials[rng.Intn(len(specials))]
			}
			mustAppend(t, s, t0.Add(time.Duration(i)*5*time.Minute), v)
		}
		zmax := []float64{0, 1, 3, 4}[rng.Intn(4)]
		clean, removed := s.RemoveOutliers(window, zmax)
		wantKept, wantRemoved := removeOutliersSorting(s.points, window, zmax)
		if !samePoints(clean.points, wantKept) || !samePoints(removed, wantRemoved) {
			t.Fatalf("trial %d (window %d, zmax %g, values %v): kept %v removed %v, sorting version kept %v removed %v",
				trial, window, zmax, s.points, clean.points, removed, wantKept, wantRemoved)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := New("tent inside", "°C")
	mustAppend(t, s, t0, -9.25)
	mustAppend(t, s, t0.Add(5*time.Minute), -9.5)
	mustAppend(t, s, t0.Add(10*time.Minute), -10.125)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "tent inside" || got.Unit() != "°C" {
		t.Errorf("header round trip: %q (%q)", got.Name(), got.Unit())
	}
	if got.Len() != 3 {
		t.Fatalf("round trip lost points: %d", got.Len())
	}
	for i := 0; i < 3; i++ {
		if !got.At(i).At.Equal(s.At(i).At) {
			t.Errorf("point %d time %v != %v", i, got.At(i).At, s.At(i).At)
		}
		if math.Abs(got.At(i).Value-s.At(i).Value) > 0.001 {
			t.Errorf("point %d value %v != %v", i, got.At(i).Value, s.At(i).Value)
		}
	}
}

func TestReadCSVBadInput(t *testing.T) {
	cases := []string{
		"",
		"only-one-column\n",
		"timestamp,v\nnot-a-time,1\n",
		"timestamp,v\n2010-02-19 12:00:00,not-a-number\n",
	}
	for _, in := range cases {
		if _, err := readCSV(strings.NewReader(in)); err == nil {
			t.Errorf("readCSV(%q) succeeded, want error", in)
		}
	}
}

func TestReadCSVPlainHeader(t *testing.T) {
	in := "timestamp,outside\n2010-02-19 12:00:00,-9.2\n"
	s, err := readCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "outside" || s.Unit() != "" {
		t.Errorf("got name %q unit %q", s.Name(), s.Unit())
	}
}

func BenchmarkAppend(b *testing.B) {
	s := New("bench", "")
	for i := 0; i < b.N; i++ {
		_ = s.Append(t0.Add(time.Duration(i)*time.Second), float64(i))
	}
}

func BenchmarkResampleDay(b *testing.B) {
	s := New("bench", "")
	for i := 0; i < 24*60; i++ {
		_ = s.Append(t0.Add(time.Duration(i)*time.Minute), float64(i%17))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Resample(10 * time.Minute)
	}
}

func quantizedSeries(t *testing.T, n int) *Series {
	t.Helper()
	s := New("tent_inside", "°C")
	base := time.Date(2009, 11, 20, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		v, _ := strconv.ParseFloat(strconv.FormatFloat(
			6*math.Sin(float64(i)/70)-3, 'f', 3, 64), 64)
		if err := s.Append(base.Add(time.Duration(i)*20*time.Minute), v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSummarizeWindow(t *testing.T) {
	s := quantizedSeries(t, 1000)
	from := s.At(100).At
	to := s.At(300).At // exclusive
	want, err := s.Slice(from, to).Summarize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SummarizeWindow(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("SummarizeWindow = %+v, want %+v", got, want)
	}
	if got.N != 200 {
		t.Fatalf("window holds %d samples, want 200", got.N)
	}
	if _, err := s.SummarizeWindow(to, from); err != ErrEmpty {
		t.Fatalf("inverted window: got %v, want ErrEmpty", err)
	}
}

func TestSummarizeWindowAllocFree(t *testing.T) {
	// The windowed aggregation must not copy the window: the old
	// Slice+Summarize path allocated a fresh Series per dashboard query.
	s := quantizedSeries(t, 5000)
	from := s.At(1000).At
	to := s.At(4000).At
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.SummarizeWindow(from, to); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SummarizeWindow allocates %.1f times per call, want 0", allocs)
	}
}

// The helpers below have no caller in the program; they stay beside the
// tests that pin them and go when those tests do.
// readCSV is also the inverse of WriteCSV that TestCSVRoundTrip reads
// back with.

// gaps returns the start and end of every inter-sample interval longer than
// threshold. The paper's Fig. 4 caption calls out exactly such a gap.
func (s *Series) gaps(threshold time.Duration) []gap {
	var gaps []gap
	for i := 1; i < len(s.points); i++ {
		d := s.points[i].At.Sub(s.points[i-1].At)
		if d > threshold {
			gaps = append(gaps, gap{From: s.points[i-1].At, To: s.points[i].At})
		}
	}
	return gaps
}

// gap is a span with no samples.
type gap struct {
	From, To time.Time
}

// Duration returns the length of the gap.
func (g gap) Duration() time.Duration { return g.To.Sub(g.From) }

// readCSV parses a series previously written with WriteCSV. The name and
// unit are recovered from the header when it matches the "name (unit)"
// shape; otherwise the raw header is used as the name.
func readCSV(r io.Reader) (*Series, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("timeseries: reading CSV header: %w", err)
	}
	if len(header) != 2 {
		return nil, fmt.Errorf("timeseries: want 2 CSV columns, got %d", len(header))
	}
	name, unit := header[1], ""
	if i := lastIndexByte(name, '('); i > 0 && name[len(name)-1] == ')' {
		unit = name[i+1 : len(name)-1]
		name = trimSpaceRight(name[:i])
	}
	s := New(name, unit)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("timeseries: CSV line %d: %w", line, err)
		}
		at, err := time.Parse(csvTimeLayout, rec[0])
		if err != nil {
			return nil, fmt.Errorf("timeseries: CSV line %d timestamp: %w", line, err)
		}
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("timeseries: CSV line %d value: %w", line, err)
		}
		if err := s.Append(at.UTC(), v); err != nil {
			return nil, fmt.Errorf("timeseries: CSV line %d: %w", line, err)
		}
	}
	return s, nil
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func trimSpaceRight(s string) string {
	for len(s) > 0 && s[len(s)-1] == ' ' {
		s = s[:len(s)-1]
	}
	return s
}
