package report

import (
	"fmt"
	"math"
	"strings"
	"time"

	"frostlab/internal/core"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
)

// DualTrack renders the control loop's trajectory: the setpoint ('-') and
// the process variable ('*') share the value track, the band series (the
// damper, clamped to [0,1]) fills the lower track with '#' columns, and
// guard trips print as '!' markers between the two. Rendering is pure
// string assembly, so the same figure works in a terminal or a doc.
func DualTrack(trips []time.Time, setpoint, pv, band *timeseries.Series) (string, error) {
	if setpoint == nil || pv == nil || band == nil {
		return "", fmt.Errorf("report: dual-track needs setpoint, pv and band series")
	}
	if pv.Len() == 0 {
		return "", fmt.Errorf("report: dual-track pv series empty")
	}
	f, _ := newFrame([]*timeseries.Series{setpoint, pv, band}, []*timeseries.Series{setpoint, pv})
	rows := blankRows(trackHeight)
	f.draw(rows, setpoint, '-')
	f.draw(rows, pv, '*')

	var b strings.Builder
	top, mid, bottom := f.valueLabels()
	writeTrack(&b, rows, top, mid, bottom)

	// Guard-trip marker line between the tracks.
	marks := make([]Marker, len(trips))
	for i, at := range trips {
		marks[i] = Marker{At: at, Label: "!"}
	}
	if line, placed := f.markLine(marks); placed {
		b.WriteString(line + "  guard trips (!)\n")
	}

	// Band track: each column shows the latest band value at or before it
	// as a filled bar, clamped to [0,1].
	level := make([]float64, plotWidth)
	for i := range level {
		level[i] = math.NaN()
	}
	for _, p := range band.Points() {
		level[f.col(p.At)] = math.Max(0, math.Min(p.Value, 1))
	}
	// Carry the last seen value forward through empty columns.
	last := math.NaN()
	for i := range level {
		if math.IsNaN(level[i]) {
			level[i] = last
		} else {
			last = level[i]
		}
	}
	bars := blankRows(bandHeight)
	for r, line := range bars {
		threshold := 1 - (float64(r)+0.5)/bandHeight
		for c, v := range level {
			if !math.IsNaN(v) && v >= threshold {
				line[c] = '#'
			}
		}
	}
	writeTrack(&b, bars, "1.0", "", "0.0")

	b.WriteString(f.timeAxis())
	b.WriteString(legend([]string{"- " + setpoint.Name(), "* " + pv.Name(), "# " + band.Name()}, "°C / open"))
	return b.String(), nil
}

// FigControl renders the E14 control figure from a closed-loop run: the
// setpoint/PV dual track with the damper band and guard-trip markers,
// followed by the controller's accounting.
func FigControl(r *core.Results) (string, error) {
	cr := r.Control
	if cr == nil {
		return "", fmt.Errorf("report: results carry no control report (open-loop run; set Config.Control)")
	}
	grid := 2 * time.Hour
	sp, err := cr.Setpoints.Resample(grid)
	if err != nil {
		return "", err
	}
	pv, err := cr.PV.Resample(grid)
	if err != nil {
		return "", err
	}
	damper, err := cr.Damper.Resample(grid)
	if err != nil {
		return "", err
	}
	plot, err := DualTrack(cr.GuardTrips, sp, pv, damper)
	if err != nil {
		return "", err
	}

	st := cr.Stats
	inBand := 0.0
	if st.Ticks > 0 {
		inBand = float64(st.InBand) / float64(st.Ticks)
	}
	dutyTotal := 0
	for _, n := range st.DutyTicks {
		dutyTotal += n
	}
	dutyFrac := func(i int) string {
		if dutyTotal == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", float64(st.DutyTicks[i])/float64(dutyTotal)*100)
	}
	table := Table(
		[]string{"controller", "value"},
		[][]string{
			{"mode / setpoint", fmt.Sprintf("%s @ %.1f °C", cr.Mode, float64(cr.Setpoint))},
			{"envelope", fmt.Sprintf("[%.0f, %.0f] °C, dew <= %.0f °C, RH <= %.0f%%",
				float64(cr.Envelope.TempLow), float64(cr.Envelope.TempHigh),
				float64(cr.Envelope.DewPointMax), float64(cr.Envelope.RHMax))},
			{"in-band ticks", fmt.Sprintf("%d/%d (%.1f%%)", st.InBand, st.Ticks, inBand*100)},
			{"envelope residency", fmt.Sprintf("%.1f%% of control ticks", cr.EnvelopeFraction()*100)},
			{"guard trips / guarded ticks", fmt.Sprintf("%d / %d", st.GuardTrips, st.GuardTicks)},
			{"envelope overrides", fmt.Sprintf("%d ticks", st.EnvelopeTicks)},
			{"stuck mismatches / fallback", fmt.Sprintf("%d / %d ticks", st.StuckTicks, st.FallbackTicks)},
			{"duty normal/boost/throttle/migrate", fmt.Sprintf("%s / %s / %s / %s",
				dutyFrac(0), dutyFrac(1), dutyFrac(2), dutyFrac(3))},
			{"duty changes / migrated cycles", fmt.Sprintf("%d / %d", st.DutyChanges, cr.MigratedCycles)},
		},
	)
	return "Fig. E14 — Closed-loop free cooling: setpoint vs tent intake, damper band\n\n" +
		plot + "\n" + table, nil
}

// EnvelopeResidency measures the fraction of logger samples inside the
// allowable envelope, post hoc from the inside series — the same metric
// for open-loop and closed-loop arms, independent of any controller.
// The sample count pairs the temperature and humidity records index-wise
// (outlier cleaning may drop a sample from one of them).
func EnvelopeResidency(r *core.Results, env units.AshraeEnvelope) (float64, int) {
	if r.InsideTemp == nil || r.InsideRH == nil {
		return 0, 0
	}
	temp := r.InsideTemp.Points()
	rh := r.InsideRH.Points()
	n := len(temp)
	if len(rh) < n {
		n = len(rh)
	}
	if n == 0 {
		return 0, 0
	}
	inside := 0
	for i := 0; i < n; i++ {
		if env.Contains(units.Celsius(temp[i].Value), units.RelHumidity(rh[i].Value)) {
			inside++
		}
	}
	return float64(inside) / float64(n), n
}

// ControlRow is one arm of the E14 open-loop vs closed-loop study.
type ControlRow struct {
	Scenario string // e.g. "winter0910", "springmelt"
	Arm      string // "open-loop" or "closed-loop"
	// EnvelopeFraction is the post-hoc logger-sample residency; Samples
	// the count it was measured over.
	EnvelopeFraction float64
	Samples          int
	TentEnergyKWh    float64
	GuardTrips       int
	FallbackTicks    int
}

// TableControlStudy renders the E14 comparison: envelope residency and
// energy per scenario and arm.
func TableControlStudy(rows []ControlRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		guard, fallback := "-", "-"
		if r.Arm != "open-loop" {
			guard = fmt.Sprintf("%d", r.GuardTrips)
			fallback = fmt.Sprintf("%d", r.FallbackTicks)
		}
		out = append(out, []string{
			r.Scenario,
			r.Arm,
			fmt.Sprintf("%.1f%%", r.EnvelopeFraction*100),
			fmt.Sprintf("%d", r.Samples),
			fmt.Sprintf("%.0f", r.TentEnergyKWh),
			guard,
			fallback,
		})
	}
	return "E14 — intake residency in the allowable envelope, open vs closed loop\n\n" +
		Table([]string{"scenario", "arm", "in envelope", "samples", "tent kWh", "guard trips", "fallback ticks"}, out)
}
