package weather

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"frostlab/internal/units"
)

// Trace replays recorded weather conditions with linear interpolation
// between samples. It lets a real station export (e.g. from SMEAR III /
// the Finnish Meteorological Institute) stand in for the synthetic model.
type Trace struct {
	points []tracePoint
}

type tracePoint struct {
	at time.Time
	c  Conditions
}

// NewTrace builds a trace from (time, conditions) samples. Samples are
// sorted by time; at least one is required.
func NewTrace(times []time.Time, conds []Conditions) (*Trace, error) {
	if len(times) == 0 || len(times) != len(conds) {
		return nil, fmt.Errorf("weather: trace needs equal, non-zero sample counts (got %d times, %d conditions)", len(times), len(conds))
	}
	tr := &Trace{points: make([]tracePoint, len(times))}
	for i := range times {
		tr.points[i] = tracePoint{at: times[i], c: conds[i]}
	}
	sort.Slice(tr.points, func(i, j int) bool { return tr.points[i].at.Before(tr.points[j].at) })
	return tr, nil
}

// Span returns the first and last sample times of the trace.
func (tr *Trace) Span() (time.Time, time.Time) {
	return tr.points[0].at, tr.points[len(tr.points)-1].at
}

// At returns the conditions at t. Before the first sample or after the last
// one, the nearest endpoint is returned (held constant); in between, each
// field is linearly interpolated.
func (tr *Trace) At(t time.Time) Conditions {
	pts := tr.points
	if !t.After(pts[0].at) {
		return pts[0].c
	}
	if !t.Before(pts[len(pts)-1].at) {
		return pts[len(pts)-1].c
	}
	// First sample at or after t.
	i := sort.Search(len(pts), func(i int) bool { return !pts[i].at.Before(t) })
	a, b := pts[i-1], pts[i]
	span := b.at.Sub(a.at).Seconds()
	frac := 0.0
	if span > 0 {
		frac = t.Sub(a.at).Seconds() / span
	}
	lerp := func(x, y float64) float64 { return x + frac*(y-x) }
	return Conditions{
		Temp:         units.Celsius(lerp(float64(a.c.Temp), float64(b.c.Temp))),
		RH:           units.RelHumidity(lerp(float64(a.c.RH), float64(b.c.RH))).Clamp(),
		Wind:         units.MetersPerSecond(lerp(float64(a.c.Wind), float64(b.c.Wind))),
		Irradiance:   units.WattsPerSquareMeter(lerp(float64(a.c.Irradiance), float64(b.c.Irradiance))),
		SnowfallRate: lerp(a.c.SnowfallRate, b.c.SnowfallRate),
	}
}

const traceTimeLayout = "2006-01-02 15:04:05"

// WriteTraceCSV samples the model at the given interval over [from, to] and
// writes a five-column CSV (timestamp, temp_c, rh_pct, wind_ms, irr_wm2,
// snow_mmh). It is the export format of cmd/weathergen.
func WriteTraceCSV(w io.Writer, m Model, from, to time.Time, step time.Duration) error {
	if step <= 0 {
		return fmt.Errorf("weather: non-positive step %v", step)
	}
	if to.Before(from) {
		return fmt.Errorf("weather: trace range ends (%v) before it starts (%v)", to, from)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"timestamp", "temp_c", "rh_pct", "wind_ms", "irr_wm2", "snow_mmh"}); err != nil {
		return err
	}
	for t := from; !t.After(to); t = t.Add(step) {
		c := m.At(t)
		rec := []string{
			t.UTC().Format(traceTimeLayout),
			strconv.FormatFloat(float64(c.Temp), 'f', 2, 64),
			strconv.FormatFloat(float64(c.RH), 'f', 1, 64),
			strconv.FormatFloat(float64(c.Wind), 'f', 2, 64),
			strconv.FormatFloat(float64(c.Irradiance), 'f', 1, 64),
			strconv.FormatFloat(c.SnowfallRate, 'f', 2, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTraceCSV parses a trace written by WriteTraceCSV.
func ReadTraceCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("weather: reading trace header: %w", err)
	}
	if len(header) != 6 {
		return nil, fmt.Errorf("weather: want 6 trace columns, got %d", len(header))
	}
	var times []time.Time
	var conds []Conditions
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("weather: trace line %d: %w", line, err)
		}
		at, err := time.Parse(traceTimeLayout, rec[0])
		if err != nil {
			return nil, fmt.Errorf("weather: trace line %d timestamp: %w", line, err)
		}
		var f [5]float64
		for i := 0; i < 5; i++ {
			f[i], err = strconv.ParseFloat(rec[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("weather: trace line %d column %d: %w", line, i+2, err)
			}
			if math.IsNaN(f[i]) || math.IsInf(f[i], 0) {
				return nil, fmt.Errorf("weather: trace line %d column %d: non-finite value %v", line, i+2, f[i])
			}
		}
		times = append(times, at.UTC())
		conds = append(conds, Conditions{
			Temp:         units.Celsius(f[0]),
			RH:           units.RelHumidity(f[1]).Clamp(),
			Wind:         units.MetersPerSecond(f[2]),
			Irradiance:   units.WattsPerSquareMeter(f[3]),
			SnowfallRate: f[4],
		})
	}
	return NewTrace(times, conds)
}
