package econ

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// Trace replays recorded grid rates with linear interpolation between
// samples, mirroring weather.Trace: a real market export (Nord Pool spot,
// a grid operator's carbon feed) substitutes for the synthetic tariff
// without touching downstream code.
type Trace struct {
	points []tracePoint
}

type tracePoint struct {
	at time.Time
	r  Rates
}

// NewTrace builds a trace from (time, rates) samples, sorted by time; at
// least one sample is required.
func NewTrace(times []time.Time, rates []Rates) (*Trace, error) {
	if len(times) == 0 || len(times) != len(rates) {
		return nil, fmt.Errorf("econ: trace needs equal, non-zero sample counts (got %d times, %d rates)", len(times), len(rates))
	}
	tr := &Trace{points: make([]tracePoint, len(times))}
	for i := range times {
		tr.points[i] = tracePoint{at: times[i], r: rates[i]}
	}
	sort.Slice(tr.points, func(i, j int) bool { return tr.points[i].at.Before(tr.points[j].at) })
	return tr, nil
}

// Span returns the first and last sample times.
func (tr *Trace) Span() (time.Time, time.Time) {
	return tr.points[0].at, tr.points[len(tr.points)-1].at
}

// At implements Source: held at the endpoints, linearly interpolated in
// between.
func (tr *Trace) At(t time.Time) Rates {
	pts := tr.points
	if !t.After(pts[0].at) {
		return pts[0].r
	}
	if !t.Before(pts[len(pts)-1].at) {
		return pts[len(pts)-1].r
	}
	i := sort.Search(len(pts), func(i int) bool { return !pts[i].at.Before(t) })
	a, b := pts[i-1], pts[i]
	span := b.at.Sub(a.at).Seconds()
	frac := 0.0
	if span > 0 {
		frac = t.Sub(a.at).Seconds() / span
	}
	lerp := func(x, y float64) float64 { return x + frac*(y-x) }
	return Rates{
		Price:  lerp(a.r.Price, b.r.Price),
		Carbon: lerp(a.r.Carbon, b.r.Carbon),
	}
}

const traceTimeLayout = "2006-01-02 15:04:05"

// WriteTraceCSV samples the source at the given interval over [from, to]
// and writes a three-column CSV (timestamp, price_usd_kwh, carbon_g_kwh).
func WriteTraceCSV(w io.Writer, s Source, from, to time.Time, step time.Duration) error {
	if step <= 0 {
		return fmt.Errorf("econ: non-positive step %v", step)
	}
	if to.Before(from) {
		return fmt.Errorf("econ: trace range ends (%v) before it starts (%v)", to, from)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"timestamp", "price_usd_kwh", "carbon_g_kwh"}); err != nil {
		return err
	}
	for t := from; !t.After(to); t = t.Add(step) {
		r := s.At(t)
		rec := []string{
			t.UTC().Format(traceTimeLayout),
			strconv.FormatFloat(r.Price, 'f', 5, 64),
			strconv.FormatFloat(r.Carbon, 'f', 2, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTraceCSV parses a trace written by WriteTraceCSV. Negative prices
// and intensities are clamped at zero, matching the synthetic model.
func ReadTraceCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("econ: reading trace header: %w", err)
	}
	if len(header) != 3 {
		return nil, fmt.Errorf("econ: want 3 trace columns, got %d", len(header))
	}
	var times []time.Time
	var rates []Rates
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("econ: trace line %d: %w", line, err)
		}
		at, err := time.Parse(traceTimeLayout, rec[0])
		if err != nil {
			return nil, fmt.Errorf("econ: trace line %d timestamp: %w", line, err)
		}
		price, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("econ: trace line %d price: %w", line, err)
		}
		carbon, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("econ: trace line %d carbon: %w", line, err)
		}
		if math.IsNaN(price) || math.IsInf(price, 0) || math.IsNaN(carbon) || math.IsInf(carbon, 0) {
			return nil, fmt.Errorf("econ: trace line %d: non-finite rate", line)
		}
		if price < 0 {
			price = 0
		}
		if carbon < 0 {
			carbon = 0
		}
		times = append(times, at.UTC())
		rates = append(rates, Rates{Price: price, Carbon: carbon})
	}
	return NewTrace(times, rates)
}
