package analysis

import (
	"math"
	"testing"
	"time"

	"frostlab/internal/thermal"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
	"frostlab/internal/weather"
)

var t0 = weather.ExperimentEpoch

func refModel() weather.Model { return weather.ReferenceWinter0910("analysis") }

func TestCondensationPoweredMachinesSafe(t *testing.T) {
	// §5's claim: powered equipment (surfaces warmer than intake) has
	// "few possibilities to condense". Over the whole winter the powered
	// risk fraction must be zero and the margin comfortably positive.
	rep, err := CondensationStudy(refModel(), t0, t0.AddDate(0, 0, 42), 10*time.Minute, 5, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PoweredRiskFraction != 0 {
		t.Errorf("powered machines at condensation risk %.3f of the time; §5 says ~never", rep.PoweredRiskFraction)
	}
	if rep.MinPoweredMargin < 4 {
		t.Errorf("min powered margin %.2f°C; a +5°C surface over dew point ≤ air temp must keep ≥ ~5", rep.MinPoweredMargin)
	}
	if rep.Samples == 0 {
		t.Fatal("no samples")
	}
	if rep.MaxDewPoint > 10 || rep.MaxDewPoint < -30 {
		t.Errorf("max dew point %v implausible for a Finnish winter", rep.MaxDewPoint)
	}
}

// warmFront is a synthetic weather model for the §5 risk scenario: a cold
// snap followed by an abrupt warm, moist front.
type warmFront struct{}

func (warmFront) At(at time.Time) weather.Conditions {
	h := at.Sub(t0).Hours()
	if h < 48 {
		return weather.Conditions{Temp: -15, RH: 70}
	}
	return weather.Conditions{Temp: 5, RH: 97}
}

func TestCondensationUnpoweredMachineAtRisk(t *testing.T) {
	// A powered-off machine's chassis lags the abrupt warm front and dips
	// below the new dew point — the exact §5 scenario.
	rep, err := CondensationStudy(warmFront{}, t0, t0.Add(96*time.Hour), 10*time.Minute, 5, 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnpoweredRiskFraction == 0 {
		t.Error("unpowered machine saw no condensation risk through a warm moist front")
	}
	if rep.PoweredRiskFraction != 0 {
		t.Errorf("powered machine at risk %.3f; +5°C surface should clear a 97%%RH front's dew point", rep.PoweredRiskFraction)
	}
	if rep.UnpoweredRiskFraction > 0.5 {
		t.Errorf("unpowered risk %.3f implausibly large for a single front", rep.UnpoweredRiskFraction)
	}
}

func TestCondensationValidation(t *testing.T) {
	m := refModel()
	if _, err := CondensationStudy(m, t0, t0, time.Minute, 5, time.Hour); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := CondensationStudy(m, t0, t0.Add(time.Hour), 0, 5, time.Hour); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := CondensationStudy(m, t0, t0.Add(time.Hour), time.Minute, -1, time.Hour); err == nil {
		t.Error("negative surface delta accepted")
	}
	if _, err := CondensationStudy(m, t0, t0.Add(time.Hour), time.Minute, 5, 0); err == nil {
		t.Error("zero lag accepted")
	}
}

func TestAttributeDeltaT(t *testing.T) {
	att, err := AttributeDeltaT(refModel(), nil, 1400,
		t0, t0.AddDate(0, 0, 7), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if att.MeanDeltaT < 8 {
		t.Errorf("unmodified tent mean ΔT %.1f, want double digits", att.MeanDeltaT)
	}
	// §3.2 ranks outside temperature and sunlight above equipment draw as
	// *variability* drivers, but the standing ΔT is mostly equipment:
	// winter sun at 60°N is weak.
	if att.EquipmentDeltaT <= att.SolarDeltaT {
		t.Errorf("equipment share %.1f not above solar share %.1f in a Finnish February",
			att.EquipmentDeltaT, att.SolarDeltaT)
	}
	if att.SolarDeltaT <= 0 {
		t.Errorf("solar share %.1f; the sun must contribute something", att.SolarDeltaT)
	}
	if math.Abs(att.MeanDeltaT-(att.EquipmentDeltaT+att.SolarDeltaT)) > 1e-9 {
		t.Error("attribution does not decompose the total")
	}
}

func TestAttributeDeltaTModificationsShrinkIt(t *testing.T) {
	bare, err := AttributeDeltaT(refModel(), nil, 1400, t0, t0.AddDate(0, 0, 3), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	all := []thermal.Modification{thermal.ReflectiveFoil, thermal.RemoveInnerTent, thermal.OpenBottom, thermal.InstallFan}
	opened, err := AttributeDeltaT(refModel(), all, 1400, t0, t0.AddDate(0, 0, 3), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if opened.MeanDeltaT >= bare.MeanDeltaT {
		t.Errorf("modifications did not shrink ΔT: %.1f -> %.1f", bare.MeanDeltaT, opened.MeanDeltaT)
	}
	if opened.SolarDeltaT >= bare.SolarDeltaT {
		t.Errorf("reflective foil did not shrink the solar share: %.2f -> %.2f",
			bare.SolarDeltaT, opened.SolarDeltaT)
	}
}

func TestAttributeValidation(t *testing.T) {
	if _, err := AttributeDeltaT(refModel(), nil, 100, t0, t0, time.Minute); err == nil {
		t.Error("empty window accepted")
	}
}

func makeTempSeries(t *testing.T, hours int, f func(h int) float64) *timeseries.Series {
	t.Helper()
	s := timeseries.New("outside", "°C")
	for h := 0; h <= hours; h++ {
		if err := s.Append(t0.Add(time.Duration(h)*time.Hour), f(h)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestExposureAnalysis(t *testing.T) {
	// 100 hours: half at -15, half at +5. Two failures, both in the warm
	// half.
	s := makeTempSeries(t, 100, func(h int) float64 {
		if h < 50 {
			return -15
		}
		return 5
	})
	failures := []time.Time{t0.Add(60 * time.Hour), t0.Add(80 * time.Hour)}
	bands, err := ExposureAnalysis(s, failures, -20, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	var totalHours float64
	var totalFailures int
	for _, b := range bands {
		totalHours += b.Hours
		totalFailures += b.Failures
	}
	if math.Abs(totalHours-100) > 1e-9 {
		t.Errorf("total exposure %.1f h, want 100", totalHours)
	}
	if totalFailures != 2 {
		t.Errorf("total failures %d, want 2", totalFailures)
	}
	// The cold band must have exposure but no failures; the warm band both.
	if bands[0].Failures != 0 || bands[0].Hours == 0 {
		t.Errorf("cold band %+v", bands[0])
	}
	warm := bands[2]
	if warm.Failures != 2 {
		t.Errorf("warm band %+v", warm)
	}
	if warm.RatePer1000h() <= 0 {
		t.Error("warm band rate not positive")
	}
	if bands[0].RatePer1000h() != 0 {
		t.Error("cold band rate not zero")
	}
}

func TestExposureOutOfRangeClamped(t *testing.T) {
	s := makeTempSeries(t, 10, func(h int) float64 { return -40 }) // below lo
	bands, err := ExposureAnalysis(s, nil, -20, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bands[0].Hours != 10 {
		t.Errorf("out-of-range exposure not clamped to edge band: %+v", bands)
	}
}

func TestExposureValidation(t *testing.T) {
	s := makeTempSeries(t, 10, func(h int) float64 { return 0 })
	if _, err := ExposureAnalysis(s, nil, 10, -10, 2); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := ExposureAnalysis(s, nil, -10, 10, 0); err == nil {
		t.Error("zero bands accepted")
	}
	short := timeseries.New("x", "")
	if _, err := ExposureAnalysis(short, nil, -10, 10, 2); err == nil {
		t.Error("short record accepted")
	}
	if _, err := ExposureAnalysis(s, []time.Time{t0.Add(-time.Hour)}, -10, 10, 2); err == nil {
		t.Error("failure before the record accepted")
	}
}

func TestValueAt(t *testing.T) {
	s := makeTempSeries(t, 4, func(h int) float64 { return float64(h) })
	if v, ok := valueAt(s, t0.Add(2*time.Hour+30*time.Minute)); !ok || v != 2 {
		t.Errorf("valueAt mid = %v %v, want 2 (preceding sample)", v, ok)
	}
	if v, ok := valueAt(s, t0.Add(10*time.Hour)); !ok || v != 4 {
		t.Errorf("valueAt beyond end = %v %v, want last", v, ok)
	}
	if _, ok := valueAt(s, t0.Add(-time.Minute)); ok {
		t.Error("valueAt before start should fail")
	}
}

func TestUnitsDewPointConsistency(t *testing.T) {
	// The study must be consistent with the underlying psychrometrics: at
	// 100% RH the dew point equals air temperature, so any positive
	// surface delta is safe.
	rep, err := CondensationStudy(saturatedModel{}, t0, t0.Add(24*time.Hour), time.Hour, 1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PoweredRiskFraction != 0 {
		t.Error("positive surface delta condensed in saturated steady air")
	}
}

type saturatedModel struct{}

func (saturatedModel) At(time.Time) weather.Conditions {
	return weather.Conditions{Temp: -2, RH: 100}
}

func TestCondensationReportUnits(t *testing.T) {
	// MaxDewPoint must never exceed the warmest air temperature seen.
	rep, err := CondensationStudy(warmFront{}, t0, t0.Add(96*time.Hour), time.Hour, 5, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxDewPoint > units.Celsius(5) {
		t.Errorf("max dew point %v above max air temp 5°C", rep.MaxDewPoint)
	}
}

func BenchmarkCondensationStudyWinter(b *testing.B) {
	m := refModel()
	for i := 0; i < b.N; i++ {
		if _, err := CondensationStudy(m, t0, t0.AddDate(0, 0, 42), time.Hour, 5, 2*time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttributeDeltaT(b *testing.B) {
	m := refModel()
	for i := 0; i < b.N; i++ {
		if _, err := AttributeDeltaT(m, nil, 1400, t0, t0.AddDate(0, 0, 3), time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}
