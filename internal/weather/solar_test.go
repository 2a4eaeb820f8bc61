package weather

import (
	"math"
	"testing"
	"time"
)

// oracleSolarElevation is SolarElevation as it was before the calendar
// tables: every trig term computed from the instant. The tables must give
// the same bits.
func oracleSolarElevation(latitudeDeg float64, t time.Time) float64 {
	doy := float64(t.YearDay())
	decl := -23.44 * math.Cos(2*math.Pi/365*(doy+10)) // degrees
	hour := float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600
	hourAngle := (hour - 12) * 15 // degrees
	lat := latitudeDeg * math.Pi / 180
	d := decl * math.Pi / 180
	h := hourAngle * math.Pi / 180
	sinElev := math.Sin(lat)*math.Sin(d) + math.Cos(lat)*math.Cos(d)*math.Cos(h)
	return math.Asin(sinElev) * 180 / math.Pi
}

// oracleDiurnal is Synthetic's daily temperature phase as it was computed
// inline before the minute table.
func oracleDiurnal(t time.Time) float64 {
	hour := float64(t.Hour()) + float64(t.Minute())/60
	return math.Sin(2 * math.Pi * (hour - 10.5) / 24)
}

var oracleLatitudes = []float64{-89.9, -33.9, 0, 1.3, 60.2, 67.4, 89.9}

// checkCalendarTrig compares SolarElevation and the diurnal phase with
// their oracles at t, bit for bit.
func checkCalendarTrig(t *testing.T, at time.Time) {
	t.Helper()
	for _, lat := range oracleLatitudes {
		got, want := SolarElevation(lat, at), oracleSolarElevation(lat, at)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("SolarElevation(%v, %v) = %v, oracle %v", lat, at, got, want)
		}
	}
	hh, mm, _ := at.Clock()
	if got, want := minuteTable()[hh*60+mm].diurnal, oracleDiurnal(at); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("diurnal phase at %v = %v, oracle %v", at, got, want)
	}
}

func TestCalendarTrigMatchesOracleEveryMinuteOfLeapYear(t *testing.T) {
	start := time.Date(2012, time.January, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(1, 0, 0)
	n := 0
	for at := start; at.Before(end); at = at.Add(time.Minute) {
		checkCalendarTrig(t, at)
		n++
	}
	if n != 366*24*60 {
		t.Fatalf("walked %d minutes, want a leap year's %d", n, 366*24*60)
	}
}

func TestCalendarTrigMatchesOracleOffGrid(t *testing.T) {
	helsinki := time.FixedZone("EET", 2*60*60)
	newfoundland := time.FixedZone("NST", -(3*60*60 + 30*60))
	start := time.Date(2010, time.January, 1, 0, 0, 0, 0, time.UTC)
	// A 7 min 13.25 s step visits odd seconds, whole seconds with a
	// nonzero fraction, and whole minutes with a nonzero fraction.
	step := 7*time.Minute + 13*time.Second + 250*time.Millisecond
	for i := 0; i < 80_000; i++ {
		at := start.Add(time.Duration(i) * step)
		for _, loc := range []*time.Location{time.UTC, helsinki, newfoundland} {
			checkCalendarTrig(t, at.In(loc))
		}
	}
}

// TestSyntheticOffGridMatchesOracle checks eval's single Clock/YearDay read
// off the minute grid and away from UTC: its irradiance and temperature
// equal a recomputation from the oracles and the model's own mixtures.
func TestSyntheticOffGridMatchesOracle(t *testing.T) {
	m := ReferenceWinter0910("winter0910-r115")
	helsinki := time.FixedZone("EET", 2*60*60)
	step := 53*time.Minute + 17*time.Second + 3
	for i := 0; i < 2_000; i++ {
		at := ExperimentEpoch.Add(time.Duration(i) * step).In(helsinki)
		c := m.At(at)
		elapsed := at.Sub(m.epoch)
		sec, days := elapsed.Seconds(), elapsed.Hours()/24
		irr := ClearSkyIrradiance(oracleSolarElevation(m.latitude, at)) * (1 - 0.75*m.cloudFraction(sec))
		if math.Float64bits(float64(c.Irradiance)) != math.Float64bits(irr) {
			t.Fatalf("irradiance at %v = %v, oracle %v", at, c.Irradiance, irr)
		}
		temp := m.meanTemp + m.warming*days
		temp += m.diurnalA * (1 + math.Max(0, days)*0.02) * oracleDiurnal(at)
		temp = AddMix(temp, m.synoptic, sec)
		temp = AddMix(temp, m.tempNoise, sec)
		for _, cs := range m.snaps {
			temp += cs.at(at)
		}
		if math.Float64bits(float64(c.Temp)) != math.Float64bits(temp) {
			t.Fatalf("temperature at %v = %v, oracle %v", at, c.Temp, temp)
		}
	}
}
