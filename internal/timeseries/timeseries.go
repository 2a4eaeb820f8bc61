// Package timeseries stores and manipulates the timestamped measurement
// series that every frostlab instrument produces: weather station records,
// Lascar logger samples, lm-sensors readings, and power meter output.
//
// It supports append-only recording, windowed aggregation, resampling,
// outlier removal (the paper removes Lascar samples taken while the
// logger was carried indoors for readout), and CSV export in the same
// style as a Lascar EL-USB-2 export.
package timeseries

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"
)

// Point is one timestamped sample.
type Point struct {
	At    time.Time
	Value float64
}

// Series is an ordered collection of samples of a single quantity.
type Series struct {
	name   string
	unit   string
	points []Point
}

// ErrUnordered reports an append that would break timestamp ordering.
var ErrUnordered = errors.New("timeseries: append out of order")

// ErrEmpty reports an aggregate over an empty series or window.
var ErrEmpty = errors.New("timeseries: empty series or window")

// New returns an empty series with the given name and unit label
// (e.g. "tent_inside", "°C").
func New(name, unit string) *Series {
	return &Series{name: name, unit: unit}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Unit returns the series unit label.
func (s *Series) Unit() string { return s.unit }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.points) }

// Append adds a sample. Timestamps must be non-decreasing.
func (s *Series) Append(at time.Time, v float64) error {
	if n := len(s.points); n > 0 && at.Before(s.points[n-1].At) {
		return fmt.Errorf("%w: %v before %v", ErrUnordered, at, s.points[n-1].At)
	}
	s.points = append(s.points, Point{At: at, Value: v})
	return nil
}

// Points returns the underlying samples. The slice must not be modified.
func (s *Series) Points() []Point { return s.points }

// At returns the i-th sample.
func (s *Series) At(i int) Point { return s.points[i] }

// First returns the earliest sample.
func (s *Series) First() (Point, error) {
	if len(s.points) == 0 {
		return Point{}, ErrEmpty
	}
	return s.points[0], nil
}

// Last returns the latest sample.
func (s *Series) Last() (Point, error) {
	if len(s.points) == 0 {
		return Point{}, ErrEmpty
	}
	return s.points[len(s.points)-1], nil
}

// window binary-searches the index range [lo, hi) of samples in
// [from, to): O(log n) however often a dashboard asks, instead of the
// linear scan from index 0 the window paths used to pay per call.
func (s *Series) window(from, to time.Time) (lo, hi int) {
	lo = sort.Search(len(s.points), func(i int) bool { return !s.points[i].At.Before(from) })
	hi = sort.Search(len(s.points), func(i int) bool { return !s.points[i].At.Before(to) })
	if hi < lo {
		hi = lo // inverted window: empty, not a panic
	}
	return lo, hi
}

// Slice returns a new series holding the samples in [from, to).
func (s *Series) Slice(from, to time.Time) *Series {
	out := New(s.name, s.unit)
	lo, hi := s.window(from, to)
	out.points = append(out.points, s.points[lo:hi]...)
	return out
}

// Summary holds descriptive statistics of a series or window.
type Summary struct {
	N           int
	Min, Max    float64
	Mean        float64
	Stddev      float64
	MinAt       time.Time
	MaxAt       time.Time
	First, Last time.Time
}

// Summarize computes descriptive statistics over the whole series.
func (s *Series) Summarize() (Summary, error) {
	return summarizePoints(s.points)
}

// SummarizeWindow computes descriptive statistics over the samples in
// [from, to). The window bounds are found by binary search, so a
// dashboard issuing repeated window queries pays O(log n + w) per call
// — not a scan from index 0.
func (s *Series) SummarizeWindow(from, to time.Time) (Summary, error) {
	lo, hi := s.window(from, to)
	return summarizePoints(s.points[lo:hi])
}

// summarizePoints aggregates an ordered sample run without copying it.
func summarizePoints(pts []Point) (Summary, error) {
	if len(pts) == 0 {
		return Summary{}, ErrEmpty
	}
	sum := Summary{
		N:     len(pts),
		Min:   math.Inf(1),
		Max:   math.Inf(-1),
		First: pts[0].At,
		Last:  pts[len(pts)-1].At,
	}
	var total, sq float64
	for _, p := range pts {
		if p.Value < sum.Min {
			sum.Min, sum.MinAt = p.Value, p.At
		}
		if p.Value > sum.Max {
			sum.Max, sum.MaxAt = p.Value, p.At
		}
		total += p.Value
	}
	sum.Mean = total / float64(sum.N)
	for _, p := range pts {
		d := p.Value - sum.Mean
		sq += d * d
	}
	if sum.N > 1 {
		sum.Stddev = math.Sqrt(sq / float64(sum.N-1))
	}
	return sum, nil
}

// Resample aggregates the series into fixed-width buckets starting at the
// first sample's bucket boundary, taking the mean of each bucket. Buckets
// with no samples are omitted (they show up as gaps, exactly like the
// paper's missing early Lascar data).
func (s *Series) Resample(width time.Duration) (*Series, error) {
	if width <= 0 {
		return nil, fmt.Errorf("timeseries: non-positive bucket width %v", width)
	}
	out := New(s.name, s.unit)
	if len(s.points) == 0 {
		return out, nil
	}
	bucketStart := s.points[0].At.Truncate(width)
	var sum float64
	var n int
	flush := func() error {
		if n == 0 {
			return nil
		}
		if err := out.Append(bucketStart, sum/float64(n)); err != nil {
			return err
		}
		sum, n = 0, 0
		return nil
	}
	for _, p := range s.points {
		b := p.At.Truncate(width)
		if !b.Equal(bucketStart) {
			if err := flush(); err != nil {
				return nil, err
			}
			bucketStart = b
		}
		sum += p.Value
		n++
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// RemoveOutliers returns a new series without samples whose robust z-score
// — distance from the rolling-window median in units of the window's
// median absolute deviation (MAD) — exceeds zmax. The window is centered
// with the given half-width. Median/MAD is used rather than mean/stddev so
// that a *cluster* of outliers (several consecutive indoor samples from a
// Lascar readout trip) cannot inflate the spread and mask itself. It
// returns the cleaned series and the removed points.
//
// The window is kept as a sorted window, updated by one delete and one
// insert per sample, and both medians are read from it by rank; a window
// whose median is NaN or infinite takes the sorting path instead.
func (s *Series) RemoveOutliers(window int, zmax float64) (*Series, []Point) {
	if window < 1 || len(s.points) < 2*window+1 {
		out := New(s.name, s.unit)
		out.points = append(out.points, s.points...)
		return out, nil
	}
	out := New(s.name, s.unit)
	var removed []Point
	pts := s.points
	out.points = make([]Point, 0, len(pts))
	win := sortedWindow{vals: make([]float64, 0, 2*window+1), nb: make([]float64, 0, 2*window)}
	for _, p := range pts[:window] {
		win.insert(p.Value)
	}
	var buf []float64
	for i, p := range pts {
		lo, hi := max(i-window, 0), min(i+window, len(pts)-1)
		if lo > 0 {
			win.remove(pts[lo-1].Value)
		}
		if hi == i+window {
			win.insert(pts[hi].Value)
		}
		med, mad, ok := win.medianMAD(p.Value)
		if !ok {
			buf = buf[:0]
			for j := lo; j <= hi; j++ {
				if j != i {
					buf = append(buf, pts[j].Value)
				}
			}
			med = median(buf)
			for k, v := range buf {
				buf[k] = math.Abs(v - med)
			}
			mad = median(buf)
		}
		// 1.4826 scales MAD to the stddev of a normal distribution; the
		// floor keeps near-constant windows from dividing by ~zero.
		sd := 1.4826 * mad
		if sd < 1e-9 {
			sd = 1e-9
		}
		if math.Abs(p.Value-med)/sd > zmax {
			removed = append(removed, p)
			continue
		}
		out.points = append(out.points, p)
	}
	return out, removed
}

// sortedWindow is a multiset of values kept in sort.Float64s order, NaN
// first, which slices.BinarySearch follows, and a reused slice for the
// neighbours of one centre.
type sortedWindow struct {
	vals []float64
	nans int
	nb   []float64
}

func (w *sortedWindow) insert(v float64) {
	k, _ := slices.BinarySearch(w.vals, v)
	w.vals = slices.Insert(w.vals, k, v)
	if v != v {
		w.nans++
	}
}

// find returns the index of a value with v's exact bits; v must be held.
func (w *sortedWindow) find(v float64) int {
	k, _ := slices.BinarySearch(w.vals, v)
	for math.Float64bits(w.vals[k]) != math.Float64bits(v) {
		k++
	}
	return k
}

func (w *sortedWindow) remove(v float64) {
	k := w.find(v)
	w.vals = slices.Delete(w.vals, k, k+1)
	if v != v {
		w.nans--
	}
}

// medianMAD returns the median of the window's values with one copy of
// centre left out, and their median absolute deviation from it: what
// sorting those values, and then their distances from the median, gives.
// Both are read by rank. Rounding is monotone, so |v−med| grows as v moves
// away from the median on either side, and merging the two sides outward
// from the median yields the distances in sorted order. It reports false
// when the window holds a NaN or the median is infinite, where that order
// breaks down.
func (w *sortedWindow) medianMAD(centre float64) (med, mad float64, ok bool) {
	if w.nans > 0 {
		return 0, 0, false
	}
	c := w.find(centre)
	nb := append(append(w.nb[:0], w.vals[:c]...), w.vals[c+1:]...)
	w.nb = nb
	m := len(nb)
	if m%2 == 1 {
		med = nb[m/2]
	} else {
		med = (nb[m/2-1] + nb[m/2]) / 2
	}
	if math.IsInf(med, 0) || med != med {
		return 0, 0, false
	}
	// Neighbours below r lie under the median, the rest at or above it.
	r := m / 2
	for r > 0 && nb[r-1] >= med {
		r--
	}
	left, right := r-1, r
	var d0, d1 float64 // distances at ranks (m-1)/2 and m/2
	for k := 0; k <= m/2; k++ {
		var d float64
		if right >= m || (left >= 0 && math.Abs(nb[left]-med) <= math.Abs(nb[right]-med)) {
			d = math.Abs(nb[left] - med)
			left--
		} else {
			d = math.Abs(nb[right] - med)
			right++
		}
		if k == (m-1)/2 {
			d0 = d
		}
		d1 = d
	}
	if m%2 == 1 {
		return med, d1, true
	}
	return med, (d0 + d1) / 2, true
}

// median returns the median of xs, reordering the slice in the process.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// csvTimeLayout is the timestamp format used in exports, matching the
// Lascar software's unambiguous ISO-like style.
const csvTimeLayout = "2006-01-02 15:04:05"

// WriteCSV emits the series as "timestamp,value" rows with a header naming
// the series and unit.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"timestamp", s.name + " (" + s.unit + ")"}); err != nil {
		return err
	}
	for _, p := range s.points {
		rec := []string{p.At.UTC().Format(csvTimeLayout), strconv.FormatFloat(p.Value, 'f', 3, 64)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
