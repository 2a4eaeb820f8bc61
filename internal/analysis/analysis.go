// Package analysis implements the quantitative arguments of the paper's
// §5 discussion and the correlational questions its data raises:
//
//   - Condensation: "whether water can condense in the hardware". The
//     paper argues powered equipment stays warmer than the intake air and
//     therefore rarely condenses; CondensationStudy computes dew-point
//     margins for both a powered and an unpowered (thermally lagging)
//     machine over a weather record, quantifying exactly that argument.
//
//   - Heat balance attribution: §3.2 ranks the four factors driving the
//     tent's inside temperature. AttributeDeltaT re-runs the tent model
//     with individual heat sources removed and attributes the temperature
//     rise to equipment power versus solar gain.
//
//   - Exposure: bucket failure events against the ambient conditions they
//     occurred in, versus the exposure distribution of all host-hours —
//     the honest way to ask "did the cold do it?" with n this small.
package analysis

import (
	"fmt"
	"time"

	"frostlab/internal/thermal"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
	"frostlab/internal/weather"
)

// CondensationReport quantifies §5's condensation argument over a weather
// record.
type CondensationReport struct {
	Samples int
	// PoweredRiskFraction is the share of samples where a machine surface
	// held SurfaceDelta above ambient would sit below the dew point —
	// §5 predicts ~0.
	PoweredRiskFraction float64
	// UnpoweredRiskFraction is the same for a powered-off machine whose
	// surface lags the air temperature — the scenario §5 flags as the
	// real risk ("the outside air to suddenly become warmer than the
	// computer cases").
	UnpoweredRiskFraction float64
	// MinPoweredMargin is the smallest (surface − dew point) distance a
	// powered machine saw, in °C; positive means it never condensed.
	MinPoweredMargin float64
	// MaxDewPoint is the highest dew point in the record.
	MaxDewPoint units.Celsius
}

// CondensationStudy evaluates condensation risk over [from, to) of a
// weather model. surfaceDelta is how much warmer a powered machine's
// surfaces run than ambient; lag is the unpowered machine's thermal time
// constant.
func CondensationStudy(m weather.Model, from, to time.Time, step time.Duration, surfaceDelta units.Celsius, lag time.Duration) (CondensationReport, error) {
	if step <= 0 || !to.After(from) {
		return CondensationReport{}, fmt.Errorf("analysis: bad study window [%v, %v) step %v", from, to, step)
	}
	if surfaceDelta < 0 {
		return CondensationReport{}, fmt.Errorf("analysis: negative surface delta %v", surfaceDelta)
	}
	if lag <= 0 {
		return CondensationReport{}, fmt.Errorf("analysis: non-positive lag %v", lag)
	}
	rep := CondensationReport{MinPoweredMargin: 1e9, MaxDewPoint: units.AbsoluteZero}
	var unpoweredSurface float64
	first := true
	poweredRisk, unpoweredRisk := 0, 0
	alpha := float64(step) / float64(lag)
	if alpha > 1 {
		alpha = 1
	}
	for at := from; at.Before(to); at = at.Add(step) {
		c := m.At(at)
		dp, err := units.DewPoint(c.Temp, c.RH)
		if err != nil {
			return rep, err
		}
		if dp > rep.MaxDewPoint {
			rep.MaxDewPoint = dp
		}
		powered := float64(c.Temp + surfaceDelta)
		if margin := powered - float64(dp); margin < rep.MinPoweredMargin {
			rep.MinPoweredMargin = margin
		}
		if units.CondensationRisk(c.Temp, c.RH, c.Temp+surfaceDelta) {
			poweredRisk++
		}
		if first {
			unpoweredSurface = float64(c.Temp)
			first = false
		}
		// First-order lag: the dead machine's chassis chases air temp.
		unpoweredSurface += (float64(c.Temp) - unpoweredSurface) * alpha
		if units.CondensationRisk(c.Temp, c.RH, units.Celsius(unpoweredSurface)) {
			unpoweredRisk++
		}
		rep.Samples++
	}
	if rep.Samples > 0 {
		rep.PoweredRiskFraction = float64(poweredRisk) / float64(rep.Samples)
		rep.UnpoweredRiskFraction = float64(unpoweredRisk) / float64(rep.Samples)
	}
	return rep, nil
}

// DeltaTAttribution decomposes the tent's mean temperature rise into the
// §3.2 factors.
type DeltaTAttribution struct {
	// MeanDeltaT is the full model's mean inside-minus-outside rise.
	MeanDeltaT float64
	// EquipmentDeltaT is the rise with solar gain removed: the share
	// attributable to the machines.
	EquipmentDeltaT float64
	// SolarDeltaT is MeanDeltaT − EquipmentDeltaT: the sunlight share the
	// reflective foil attacks.
	SolarDeltaT float64
}

// AttributeDeltaT runs the tent with and without solar gain over [from,
// to) under a constant equipment load and the given modification set.
func AttributeDeltaT(m weather.Model, mods []thermal.Modification, equipment units.Watts, from, to time.Time, step time.Duration) (DeltaTAttribution, error) {
	if step <= 0 || !to.After(from) {
		return DeltaTAttribution{}, fmt.Errorf("analysis: bad window [%v, %v) step %v", from, to, step)
	}
	run := func(zeroSolar bool) (float64, error) {
		tent := thermal.NewTent()
		for _, mo := range mods {
			tent.Apply(mo)
		}
		var sum float64
		var n int
		for at := from; at.Before(to); at = at.Add(step) {
			c := m.At(at)
			if zeroSolar {
				c.Irradiance = 0
			}
			if err := tent.Step(step, c, equipment); err != nil {
				return 0, err
			}
			sum += float64(tent.DeltaT())
			n++
		}
		return sum / float64(n), nil
	}
	full, err := run(false)
	if err != nil {
		return DeltaTAttribution{}, err
	}
	noSolar, err := run(true)
	if err != nil {
		return DeltaTAttribution{}, err
	}
	return DeltaTAttribution{
		MeanDeltaT:      full,
		EquipmentDeltaT: noSolar,
		SolarDeltaT:     full - noSolar,
	}, nil
}

// ExposureBand is one ambient-temperature band of the exposure analysis.
type ExposureBand struct {
	// Lo and Hi bound the band in °C; [Lo, Hi).
	Lo, Hi float64
	// Hours is how many sampled hours the outside record spent here.
	Hours float64
	// Failures is how many failure events occurred while ambient was in
	// the band.
	Failures int
}

// RatePer1000h returns the band's failure rate per 1000 exposure hours.
func (b ExposureBand) RatePer1000h() float64 {
	if b.Hours == 0 {
		return 0
	}
	return float64(b.Failures) / b.Hours * 1000
}

// ExposureAnalysis buckets failure instants against the temperature record
// they happened in. outsideTemp must cover the failure times; bands span
// [lo, hi) in equal widths.
func ExposureAnalysis(outsideTemp *timeseries.Series, failures []time.Time, lo, hi float64, nBands int) ([]ExposureBand, error) {
	if nBands <= 0 || hi <= lo {
		return nil, fmt.Errorf("analysis: bad band shape [%v,%v) x%d", lo, hi, nBands)
	}
	if outsideTemp.Len() < 2 {
		return nil, fmt.Errorf("analysis: temperature record too short")
	}
	width := (hi - lo) / float64(nBands)
	bands := make([]ExposureBand, nBands)
	for i := range bands {
		bands[i].Lo = lo + float64(i)*width
		bands[i].Hi = bands[i].Lo + width
	}
	idx := func(v float64) int {
		if v < lo {
			return 0
		}
		if v >= hi {
			return nBands - 1
		}
		return int((v - lo) / width)
	}
	pts := outsideTemp.Points()
	for i := 1; i < len(pts); i++ {
		dt := pts[i].At.Sub(pts[i-1].At).Hours()
		bands[idx(pts[i].Value)].Hours += dt
	}
	// Attribute each failure to the band of the nearest-preceding sample.
	for _, f := range failures {
		v, ok := valueAt(outsideTemp, f)
		if !ok {
			return nil, fmt.Errorf("analysis: failure at %v outside the temperature record", f)
		}
		bands[idx(v)].Failures++
	}
	return bands, nil
}

// valueAt returns the series value at or immediately before t.
func valueAt(s *timeseries.Series, t time.Time) (float64, bool) {
	pts := s.Points()
	if len(pts) == 0 || t.Before(pts[0].At) {
		return 0, false
	}
	lo, hi := 0, len(pts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if pts[mid].At.After(t) {
			hi = mid - 1
		} else {
			lo = mid
		}
	}
	return pts[lo].Value, true
}
