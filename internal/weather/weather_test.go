package weather

import (
	"bytes"
	"math"
	"testing"
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
)

func refModel() *Synthetic { return ReferenceWinter0910("winter0910") }

func TestSyntheticDeterminism(t *testing.T) {
	a, b := refModel(), refModel()
	for i := 0; i < 200; i++ {
		at := ExperimentEpoch.Add(time.Duration(i) * 7 * time.Hour)
		ca, cb := a.At(at), b.At(at)
		if ca != cb {
			t.Fatalf("same seed diverged at %v: %+v vs %+v", at, ca, cb)
		}
	}
}

func TestSyntheticPureFunctionOfTime(t *testing.T) {
	// Random access must equal sequential access: At is a pure function.
	m := refModel()
	at := ExperimentEpoch.AddDate(0, 0, 20)
	want := m.At(at)
	for i := 0; i < 50; i++ {
		m.At(ExperimentEpoch.Add(time.Duration(i) * time.Hour))
	}
	if got := m.At(at); got != want {
		t.Errorf("At not pure: %+v vs %+v", got, want)
	}
}

func TestPrototypeWeekendCalibration(t *testing.T) {
	// Paper §3.1: Feb 12–15 recorded a minimum of −10.2 °C and an average
	// of −9.2 °C. Our synthetic winter must land in that neighbourhood.
	m := refModel()
	var sum float64
	var n int
	min := math.Inf(1)
	end := ExperimentEpoch.AddDate(0, 0, 3)
	for at := ExperimentEpoch; at.Before(end); at = at.Add(10 * time.Minute) {
		v := float64(m.At(at).Temp)
		sum += v
		n++
		if v < min {
			min = v
		}
	}
	mean := sum / float64(n)
	if mean < -12.5 || mean > -6 {
		t.Errorf("prototype weekend mean %.1f°C, want ≈ -9.2", mean)
	}
	if min > -8.5 || min < -17 {
		t.Errorf("prototype weekend min %.1f°C, want ≈ -10.2", min)
	}
}

func TestSeasonMinimumNearMinus22(t *testing.T) {
	// Paper §4.2.1: the longest-running host saw −22 °C outside air.
	m := refModel()
	min := math.Inf(1)
	end := ExperimentEpoch.AddDate(0, 0, 45)
	for at := ExperimentEpoch; at.Before(end); at = at.Add(10 * time.Minute) {
		if v := float64(m.At(at).Temp); v < min {
			min = v
		}
	}
	if min > -18 || min < -27 {
		t.Errorf("season minimum %.1f°C, want ≈ -22", min)
	}
}

func TestSpringWarming(t *testing.T) {
	// Late March must be clearly warmer than mid-February.
	m := refModel()
	meanOver := func(start time.Time, days int) float64 {
		var sum float64
		var n int
		for at := start; at.Before(start.AddDate(0, 0, days)); at = at.Add(time.Hour) {
			sum += float64(m.At(at).Temp)
			n++
		}
		return sum / float64(n)
	}
	feb := meanOver(ExperimentEpoch, 7)
	late := meanOver(ExperimentEpoch.AddDate(0, 0, 38), 7)
	if late-feb < 4 {
		t.Errorf("spring warming only %.1f°C (feb %.1f, late march %.1f)", late-feb, feb, late)
	}
}

func TestRHRange(t *testing.T) {
	m := refModel()
	end := ExperimentEpoch.AddDate(0, 0, 45)
	var above80 int
	var n int
	for at := ExperimentEpoch; at.Before(end); at = at.Add(30 * time.Minute) {
		rh := m.At(at).RH
		if !rh.Valid() {
			t.Fatalf("invalid RH %v at %v", rh, at)
		}
		if rh > 80 {
			above80++
		}
		n++
	}
	// The paper observes RH above 80–90% repeatedly; a Finnish winter
	// should spend a substantial share of time there.
	if frac := float64(above80) / float64(n); frac < 0.2 {
		t.Errorf("only %.0f%% of samples above 80%%RH; winter should be humid", frac*100)
	}
}

func TestWindNonNegative(t *testing.T) {
	m := refModel()
	for i := 0; i < 2000; i++ {
		at := ExperimentEpoch.Add(time.Duration(i) * 37 * time.Minute)
		if w := m.At(at).Wind; w < 0 {
			t.Fatalf("negative wind %v at %v", w, at)
		}
	}
}

func TestIrradianceZeroAtNight(t *testing.T) {
	m := refModel()
	// Midnight in February at 60°N: pitch dark.
	at := ExperimentEpoch.Add(0) // 00:00
	if irr := m.At(at).Irradiance; irr != 0 {
		t.Errorf("irradiance %v at midnight, want 0", irr)
	}
	// Noon must have some light even in winter.
	noon := ExperimentEpoch.Add(12 * time.Hour)
	if irr := m.At(noon).Irradiance; irr <= 0 {
		t.Errorf("irradiance %v at noon, want > 0", irr)
	}
}

func TestSnowOnlyWhenCold(t *testing.T) {
	m := refModel()
	end := ExperimentEpoch.AddDate(0, 0, 45)
	snowSamples := 0
	for at := ExperimentEpoch; at.Before(end); at = at.Add(20 * time.Minute) {
		c := m.At(at)
		if c.SnowfallRate > 0 {
			snowSamples++
			if c.Temp >= 1 {
				t.Fatalf("snow at %v with temp %v", at, c.Temp)
			}
			if c.SnowfallRate > 5 {
				t.Fatalf("implausible snowfall rate %v", c.SnowfallRate)
			}
		}
	}
	if snowSamples == 0 {
		t.Error("no snow in a whole Finnish winter")
	}
}

func TestSolarElevationPhysics(t *testing.T) {
	// Helsinki mid-February: sun up at noon, down at midnight.
	noon := time.Date(2010, 2, 15, 12, 0, 0, 0, time.UTC)
	midnight := time.Date(2010, 2, 15, 0, 0, 0, 0, time.UTC)
	if e := SolarElevation(HelsinkiLatitude, noon); e < 5 || e > 25 {
		t.Errorf("noon elevation %v°, want ~17°", e)
	}
	if e := SolarElevation(HelsinkiLatitude, midnight); e >= 0 {
		t.Errorf("midnight elevation %v°, want below horizon", e)
	}
	// Equator at equinox noon: near-zenith.
	equinoxNoon := time.Date(2010, 3, 21, 12, 0, 0, 0, time.UTC)
	if e := SolarElevation(0, equinoxNoon); e < 85 {
		t.Errorf("equatorial equinox noon elevation %v°, want ≈90°", e)
	}
}

func TestClearSkyIrradiance(t *testing.T) {
	if v := ClearSkyIrradiance(-5); v != 0 {
		t.Errorf("below-horizon irradiance %v", v)
	}
	if v := ClearSkyIrradiance(90); v < 800 || v > 1100 {
		t.Errorf("zenith irradiance %v, want ≈ 950", v)
	}
	if lo, hi := ClearSkyIrradiance(10), ClearSkyIrradiance(40); lo >= hi {
		t.Errorf("irradiance not increasing with elevation: %v vs %v", lo, hi)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := ReferenceWinter0910("winter0910")
	b := ReferenceWinter0910("other")
	same := 0
	for i := 0; i < 30; i++ {
		at := ExperimentEpoch.Add(time.Duration(i) * 11 * time.Hour)
		if a.At(at).Temp == b.At(at).Temp {
			same++
		}
	}
	if same == 30 {
		t.Error("different seeds produced identical weather")
	}
}

func TestNewSyntheticValidation(t *testing.T) {
	if _, err := NewSynthetic(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := NewSynthetic(Config{Epoch: ExperimentEpoch, Latitude: 95}); err == nil {
		t.Error("bad latitude accepted")
	}
	if _, err := NewSynthetic(Config{Epoch: ExperimentEpoch, MeanRH: 150}); err == nil {
		t.Error("bad RH accepted")
	}
}

func TestTraceInterpolation(t *testing.T) {
	times := []time.Time{ExperimentEpoch, ExperimentEpoch.Add(time.Hour)}
	conds := []Conditions{
		{Temp: -10, RH: 80, Wind: 2, Irradiance: 0, SnowfallRate: 0},
		{Temp: -6, RH: 90, Wind: 4, Irradiance: 100, SnowfallRate: 1},
	}
	tr, err := NewTrace(times, conds)
	if err != nil {
		t.Fatal(err)
	}
	mid := tr.At(ExperimentEpoch.Add(30 * time.Minute))
	if mid.Temp != -8 || mid.RH != 85 || mid.Wind != 3 || mid.Irradiance != 50 || mid.SnowfallRate != 0.5 {
		t.Errorf("midpoint interpolation wrong: %+v", mid)
	}
	// Endpoints held outside the range.
	if got := tr.At(ExperimentEpoch.Add(-time.Hour)); got != conds[0] {
		t.Errorf("before-range: %+v", got)
	}
	if got := tr.At(ExperimentEpoch.Add(2 * time.Hour)); got != conds[1] {
		t.Errorf("after-range: %+v", got)
	}
}

func TestTraceSortsByTime(t *testing.T) {
	times := []time.Time{ExperimentEpoch.Add(time.Hour), ExperimentEpoch}
	conds := []Conditions{{Temp: -6}, {Temp: -10}}
	tr, err := NewTrace(times, conds)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := tr.Span()
	if !first.Equal(ExperimentEpoch) {
		t.Errorf("trace not sorted: span starts %v", first)
	}
	if got := tr.At(ExperimentEpoch); got.Temp != -10 {
		t.Errorf("sorted lookup: %v", got.Temp)
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace(nil, nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewTrace([]time.Time{ExperimentEpoch}, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	m := refModel()
	var buf bytes.Buffer
	from := ExperimentEpoch
	to := ExperimentEpoch.Add(6 * time.Hour)
	if err := WriteTraceCSV(&buf, m, from, to, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTraceCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for at := from; !at.After(to); at = at.Add(10 * time.Minute) {
		want := m.At(at)
		got := tr.At(at)
		if math.Abs(float64(got.Temp-want.Temp)) > 0.011 {
			t.Fatalf("temp at %v: %v vs %v", at, got.Temp, want.Temp)
		}
		if math.Abs(float64(got.RH-want.RH)) > 0.051 {
			t.Fatalf("rh at %v: %v vs %v", at, got.RH, want.RH)
		}
	}
}

func TestWriteTraceCSVValidation(t *testing.T) {
	m := refModel()
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, m, ExperimentEpoch, ExperimentEpoch.Add(time.Hour), 0); err == nil {
		t.Error("zero step accepted")
	}
	if err := WriteTraceCSV(&buf, m, ExperimentEpoch.Add(time.Hour), ExperimentEpoch, time.Minute); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestReadTraceCSVBadInput(t *testing.T) {
	bad := []string{
		"",
		"a,b\n",
		"timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\nnot-a-time,1,2,3,4,5\n",
		"timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\n2010-02-12 00:00:00,x,2,3,4,5\n",
		"timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\n2010-02-12 00:00:00,1,NaN,1,1,1\n",
		"timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\n2010-02-12 00:00:00,Inf,1,1,1,1\n",
		"timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\n2010-02-12 00:00:00,1,1,-Inf,1,1\n",
		"timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\n2010-02-12 00:00:00,1,1,1,+Inf,1\n",
		"timestamp,temp_c,rh_pct,wind_ms,irr_wm2,snow_mmh\n2010-02-12 00:00:00,1,1,1,1,nan\n",
	}
	for _, in := range bad {
		if _, err := ReadTraceCSV(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("ReadTraceCSV(%q) succeeded", in)
		}
	}
}

func TestStationRecordsSeries(t *testing.T) {
	m := refModel()
	rng := simkernel.NewRNG("station")
	sched := simkernel.NewScheduler(ExperimentEpoch)
	st := NewStation(m, rng, time.Minute)
	if err := st.Install(sched, ExperimentEpoch); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(ExperimentEpoch.Add(2 * time.Hour))
	if st.Temp.Len() != 121 {
		t.Errorf("temp samples %d, want 121", st.Temp.Len())
	}
	sum, err := st.Temp.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mean > 0 || sum.Mean < -25 {
		t.Errorf("station mean %v implausible for February", sum.Mean)
	}
	// Station noise must stay near the model truth.
	truth := m.At(ExperimentEpoch)
	first, _ := st.Temp.First()
	if math.Abs(first.Value-float64(truth.Temp)) > 1 {
		t.Errorf("station reading %v too far from truth %v", first.Value, truth.Temp)
	}
	for _, s := range []*timeseries.Series{st.RH, st.Wind, st.Irr, st.Snow} {
		if s.Len() != 121 {
			t.Errorf("series %s has %d samples, want 121", s.Name(), s.Len())
		}
	}
}

func TestStationRHClamped(t *testing.T) {
	m := refModel()
	rng := simkernel.NewRNG("clamp")
	sched := simkernel.NewScheduler(ExperimentEpoch)
	st := NewStation(m, rng, 10*time.Minute)
	if err := st.Install(sched, ExperimentEpoch); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(ExperimentEpoch.AddDate(0, 0, 7))
	for _, p := range st.RH.Points() {
		if !units.RelHumidity(p.Value).Valid() {
			t.Fatalf("station logged invalid RH %v", p.Value)
		}
	}
}

func BenchmarkSyntheticAt(b *testing.B) {
	m := refModel()
	for i := 0; i < b.N; i++ {
		_ = m.At(ExperimentEpoch.Add(time.Duration(i) * time.Minute))
	}
}

func BenchmarkTraceAt(b *testing.B) {
	m := refModel()
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, m, ExperimentEpoch, ExperimentEpoch.AddDate(0, 0, 7), 10*time.Minute); err != nil {
		b.Fatal(err)
	}
	tr, err := ReadTraceCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.At(ExperimentEpoch.Add(time.Duration(i%10000) * time.Minute))
	}
}
