package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCelsiusKelvinRoundTrip(t *testing.T) {
	cases := []Celsius{-273.15, -22, -10.2, -4, 0, 20, 75}
	for _, c := range cases {
		if got := c.Kelvin().Celsius(); math.Abs(float64(got-c)) > 1e-9 {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
}

func TestKelvinOfZero(t *testing.T) {
	if k := Celsius(0).Kelvin(); math.Abs(float64(k)-273.15) > 1e-9 {
		t.Errorf("0°C = %v K, want 273.15", k)
	}
}

func TestAbsoluteZeroValid(t *testing.T) {
	if !AbsoluteZero.Valid() {
		t.Error("absolute zero should be valid (boundary)")
	}
	if Celsius(-273.16).Valid() {
		t.Error("below absolute zero should be invalid")
	}
}

func TestRelHumidityClamp(t *testing.T) {
	cases := []struct {
		in, want RelHumidity
	}{
		{-5, 0}, {0, 0}, {50, 50}, {100, 100}, {105, 100},
	}
	for _, c := range cases {
		if got := c.in.Clamp(); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRelHumidityValid(t *testing.T) {
	if RelHumidity(101).Valid() || RelHumidity(-1).Valid() {
		t.Error("out-of-range RH reported valid")
	}
	if !RelHumidity(88).Valid() {
		t.Error("in-range RH reported invalid")
	}
}

func TestSaturationVaporPressureAnchors(t *testing.T) {
	// Published anchor points for the Magnus formula over water.
	cases := []struct {
		t    Celsius
		want float64 // hPa
		tol  float64
	}{
		{0, 6.11, 0.02},
		{20, 23.39, 0.2},
		{-20, 1.25, 0.05},
		{10, 12.28, 0.1},
	}
	for _, c := range cases {
		got := SaturationVaporPressure(c.t)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("es(%v) = %.3f hPa, want %.3f±%.2f", c.t, got, c.want, c.tol)
		}
	}
}

func TestDewPointKnownValues(t *testing.T) {
	cases := []struct {
		t    Celsius
		rh   RelHumidity
		want Celsius
		tol  float64
	}{
		{20, 100, 20, 0.01}, // saturated air: dew point = temperature
		{20, 50, 9.3, 0.3},
		{0, 80, -2.9, 0.4},
		{-10, 90, -11.3, 0.5},
	}
	for _, c := range cases {
		got, err := DewPoint(c.t, c.rh)
		if err != nil {
			t.Fatalf("DewPoint(%v,%v): %v", c.t, c.rh, err)
		}
		if math.Abs(float64(got-c.want)) > c.tol {
			t.Errorf("DewPoint(%v,%v) = %v, want %v±%.1f", c.t, c.rh, got, c.want, c.tol)
		}
	}
}

func TestDewPointZeroRH(t *testing.T) {
	dp, err := DewPoint(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dp != AbsoluteZero {
		t.Errorf("dew point of bone-dry air = %v, want absolute zero sentinel", dp)
	}
}

func TestDewPointInvalidTemperature(t *testing.T) {
	if _, err := DewPoint(-300, 50); err == nil {
		t.Error("expected error below absolute zero")
	}
}

func TestDewPointNeverExceedsTemperature(t *testing.T) {
	f := func(t8 uint8, rh8 uint8) bool {
		temp := Celsius(float64(t8)/2 - 40) // -40..87.5
		rh := RelHumidity(float64(rh8) / 255 * 100)
		dp, err := DewPoint(temp, rh)
		if err != nil {
			return false
		}
		return dp <= temp+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDewPointMonotoneInRH(t *testing.T) {
	f := func(t8 uint8, a8, b8 uint8) bool {
		temp := Celsius(float64(t8)/2 - 40)
		lo := RelHumidity(1 + float64(a8)/255*98)
		hi := lo + RelHumidity(float64(b8)/255*(99-float64(lo)))
		dlo, err1 := DewPoint(temp, lo)
		dhi, err2 := DewPoint(temp, hi)
		if err1 != nil || err2 != nil {
			return false
		}
		return dhi >= dlo-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelHumidityAtWarming(t *testing.T) {
	// Warming air at constant moisture must strictly lower RH.
	got := RelHumidityAt(-10, 90, 5)
	if got >= 90 {
		t.Errorf("warming -10°C/90%% air to 5°C gave RH %v, want lower", got)
	}
	if got < 10 || got > 50 {
		t.Errorf("warmed RH %v outside plausible band", got)
	}
}

func TestRelHumidityAtIdentity(t *testing.T) {
	got := RelHumidityAt(3, 71, 3)
	if math.Abs(float64(got-71)) > 1e-9 {
		t.Errorf("identity translation changed RH: %v", got)
	}
}

func TestRelHumidityAtCoolingSaturates(t *testing.T) {
	// Cooling far below the dew point must clamp at 100%.
	if got := RelHumidityAt(20, 80, -20); got != 100 {
		t.Errorf("deep cooling gave %v, want clamped 100", got)
	}
}

func TestRelHumidityAtPreservesVaporPressure(t *testing.T) {
	f := func(t8, rh8, d8 uint8) bool {
		t1 := Celsius(float64(t8)/4 - 30)
		rh := RelHumidity(5 + float64(rh8)/255*90)
		t2 := t1 + Celsius(float64(d8)/255*20) // warming only, so no clamping
		rh2 := RelHumidityAt(t1, rh, t2)
		e1 := VaporPressure(t1, rh)
		e2 := VaporPressure(t2, rh2)
		return math.Abs(e1-e2) < 1e-6*math.Max(1, e1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAbsoluteHumidityAnchor(t *testing.T) {
	// Saturated air at 20 °C holds about 17.3 g/m³.
	got := absoluteHumidity(20, 100)
	if math.Abs(float64(got)-17.3) > 0.5 {
		t.Errorf("AH(20°C, 100%%) = %v g/m³, want ≈17.3", got)
	}
	// Cold air holds very little: saturated -20 °C air is under 1.1 g/m³.
	if cold := absoluteHumidity(-20, 100); cold > 1.2 {
		t.Errorf("AH(-20°C, 100%%) = %v g/m³, want < 1.2", cold)
	}
}

func TestCondensationRisk(t *testing.T) {
	// A case heated above the intake air can never condense: §5's argument.
	if CondensationRisk(-10, 95, -5) {
		t.Error("surface warmer than air flagged for condensation")
	}
	// A cold surface meeting warm moist air condenses (the feared scenario:
	// outside air suddenly warmer than the cases).
	if !CondensationRisk(10, 95, -5) {
		t.Error("cold surface in warm moist air not flagged")
	}
}

func TestCondensationRiskNeverWhenSurfaceWarmer(t *testing.T) {
	f := func(t8, rh8 uint8) bool {
		air := Celsius(float64(t8)/4 - 30)
		rh := RelHumidity(float64(rh8) / 255 * 100)
		// Surface strictly warmer than air can never be below dew point,
		// because dew point <= air temperature.
		return !CondensationRisk(air, rh, air+0.1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindChillAnchor(t *testing.T) {
	// Environment Canada anchor: -10 °C at 20 km/h (5.56 m/s) ≈ -17.9.
	got := windChill(-10, 5.56)
	if math.Abs(float64(got)+17.9) > 0.5 {
		t.Errorf("windChill(-10, 5.56) = %v, want ≈ -17.9", got)
	}
}

func TestWindChillOutsideEnvelope(t *testing.T) {
	if got := windChill(15, 10); got != 15 {
		t.Errorf("wind chill applied above 10°C: %v", got)
	}
	if got := windChill(-5, 0.5); got != -5 {
		t.Errorf("wind chill applied in calm air: %v", got)
	}
}

func TestWindChillNeverWarms(t *testing.T) {
	f := func(t8, w8 uint8) bool {
		temp := Celsius(float64(t8)/8 - 30) // -30..2
		wind := MetersPerSecond(float64(w8) / 255 * 30)
		return windChill(temp, wind) <= temp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixRatio(t *testing.T) {
	if got := mixRatio(-10, 10, 0.5); got != 0 {
		t.Errorf("midpoint mix = %v, want 0", got)
	}
	if got := mixRatio(-10, 10, 0); got != -10 {
		t.Errorf("frac 0 = %v, want a", got)
	}
	if got := mixRatio(-10, 10, 1); got != 10 {
		t.Errorf("frac 1 = %v, want b", got)
	}
	if got := mixRatio(-10, 10, 2); got != 10 {
		t.Errorf("frac clamps above 1: %v", got)
	}
	if got := mixRatio(-10, 10, -1); got != -10 {
		t.Errorf("frac clamps below 0: %v", got)
	}
}

func TestWattsFormatting(t *testing.T) {
	if s := Watts(44700).String(); s != "44.7kW" {
		t.Errorf("got %q", s)
	}
	if s := Watts(350).String(); s != "350W" {
		t.Errorf("got %q", s)
	}
}

func TestWattsEnergy(t *testing.T) {
	// 75 kW for 24h = 1800 kWh: the paper's cluster daily consumption.
	if got := Watts(75000).Energy(24); math.Abs(float64(got)-1800) > 1e-9 {
		t.Errorf("energy = %v, want 1800 kWh", got)
	}
}

func TestCelsiusString(t *testing.T) {
	if s := Celsius(-22).String(); s != "-22.0°C" {
		t.Errorf("got %q", s)
	}
}

func TestRelHumidityString(t *testing.T) {
	if s := RelHumidity(83.52).String(); s != "83.5%RH" {
		t.Errorf("got %q", s)
	}
}

func BenchmarkDewPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = DewPoint(Celsius(float64(i%40)-25), RelHumidity(50+float64(i%50)))
	}
}

func BenchmarkRelHumidityAt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RelHumidityAt(Celsius(float64(i%30)-25), 80, 5)
	}
}

func TestDewPointMargin(t *testing.T) {
	cases := []struct {
		name     string
		airT     Celsius
		rh       RelHumidity
		surfaceT Celsius
		wantSign int // -1 condensing, +1 safe, 0 = near zero (|m| < 0.1)
	}{
		{"warm surface in moist air", 5, 80, 10, +1},
		{"cold gear in moist spring air", 12, 95, 5, -1},
		{"saturated air, surface at air temp", 10, 100, 10, 0},
		{"sub-zero air, surface warmer", -15, 85, -5, +1},
		{"sub-zero air, surface colder", -5, 95, -15, -1},
		{"bone-dry air is always safe", 20, 0, -40, +1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := DewPointMargin(c.airT, c.rh, c.surfaceT)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case c.wantSign > 0 && m <= 0:
				t.Errorf("margin = %v, want positive", m)
			case c.wantSign < 0 && m >= 0:
				t.Errorf("margin = %v, want negative", m)
			case c.wantSign == 0 && math.Abs(float64(m)) > 0.1:
				t.Errorf("margin = %v, want ≈ 0", m)
			}
		})
	}
}

func TestDewPointMarginMatchesCondensationRisk(t *testing.T) {
	// The sign of the margin and the boolean predicate must agree
	// everywhere in the experiment's operating range.
	for temp := -30.0; temp <= 30; temp += 2.5 {
		for rh := 5.0; rh <= 100; rh += 5 {
			for ds := -10.0; ds <= 10; ds += 2.5 {
				airT, h, surf := Celsius(temp), RelHumidity(rh), Celsius(temp+ds)
				m, err := DewPointMargin(airT, h, surf)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := m < 0, CondensationRisk(airT, h, surf); got != want {
					t.Fatalf("at %v %v surface %v: margin %v sign disagrees with CondensationRisk %v",
						airT, h, surf, m, want)
				}
			}
		}
	}
}

func TestDewPointMarginInvalidTemperature(t *testing.T) {
	if _, err := DewPointMargin(-300, 50, 0); err == nil {
		t.Fatal("want error below absolute zero")
	}
}

// ashraeA2Allowable is the ASHRAE class A2 allowable envelope: 10–35 °C,
// dew point at most 21 °C, relative humidity at most 80 %.
var ashraeA2Allowable = AshraeEnvelope{TempLow: 10, TempHigh: 35, DewPointMax: 21, RHMax: 80}

func TestAshraeEnvelopeContains(t *testing.T) {
	cases := []struct {
		name string
		env  AshraeEnvelope
		t    Celsius
		rh   RelHumidity
		want bool
	}{
		{"A2 center", ashraeA2Allowable, 22, 50, true},
		{"A2 low edge", ashraeA2Allowable, 10, 50, true},
		{"A2 below band", ashraeA2Allowable, 9.9, 50, false},
		{"A2 high edge", ashraeA2Allowable, 35, 30, true},
		{"A2 above band", ashraeA2Allowable, 35.1, 30, false},
		{"A2 RH cap", ashraeA2Allowable, 22, 81, false},
		{"A2 dew point cap", ashraeA2Allowable, 34, 55, false}, // dp ≈ 23.8 > 21
		{"frost box admits near-freezing", FrostAllowable, 2.5, 60, true},
		{"frost box refuses deep frost", FrostAllowable, -6, 60, false},
		{"frost box refuses saturation", FrostAllowable, 5, 100, false},
		{"frost box sub-zero never allowable", FrostAllowable, -0.1, 40, false},
		{"saturated at the cold edge", FrostAllowable, 2, 85, true}, // dp ≈ -0.2 ≤ 17
		{"impossible temperature", FrostAllowable, -400, 50, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.env.Contains(c.t, c.rh); got != c.want {
				t.Errorf("%v.Contains(%v, %v) = %v, want %v", c.env, c.t, c.rh, got, c.want)
			}
		})
	}
}

func TestAshraeEnvelopeValidate(t *testing.T) {
	if err := ashraeA2Allowable.Validate(); err != nil {
		t.Fatalf("A2 allowable invalid: %v", err)
	}
	if err := FrostAllowable.Validate(); err != nil {
		t.Fatalf("frost allowable invalid: %v", err)
	}
	bad := []AshraeEnvelope{
		{TempLow: 10, TempHigh: 10, DewPointMax: 21, RHMax: 80}, // empty band
		{TempLow: 20, TempHigh: 10, DewPointMax: 21, RHMax: 80}, // inverted
		{TempLow: -300, TempHigh: 10, DewPointMax: 21, RHMax: 80},
		{TempLow: 10, TempHigh: 35, DewPointMax: -300, RHMax: 80},
		{TempLow: 10, TempHigh: 35, DewPointMax: 21, RHMax: 101},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d: %v validated, want error", i, e)
		}
	}
}

// The helpers below have no caller in the program; they stay beside the
// tests that pin them and go when those tests do.

// Kelvin is an absolute temperature in kelvins.
type Kelvin float64

// Kelvin converts a Celsius temperature to kelvins.
func (c Celsius) Kelvin() Kelvin { return Kelvin(float64(c) + 273.15) }

// Celsius converts a Kelvin temperature to degrees Celsius.
func (k Kelvin) Celsius() Celsius { return Celsius(float64(k) - 273.15) }

// GramsPerCubicMeter is an absolute humidity (water vapour density).
type GramsPerCubicMeter float64

// absoluteHumidity returns the water vapour density of the air in g/m³,
// via the ideal gas law for water vapour (specific gas constant
// 461.5 J/(kg·K)).
func absoluteHumidity(t Celsius, rh RelHumidity) GramsPerCubicMeter {
	e := VaporPressure(t, rh) * 100 // hPa -> Pa
	const rv = 461.5                // J/(kg·K)
	kg := e / (rv * float64(t.Kelvin()))
	return GramsPerCubicMeter(kg * 1000)
}

// windChill returns the apparent temperature using the North American /
// UK Met Office wind chill index (valid for t <= 10 °C and wind >= 1.34 m/s;
// outside that envelope the air temperature itself is returned).
func windChill(t Celsius, wind MetersPerSecond) Celsius {
	if t > 10 || wind < 1.34 {
		return t
	}
	kmh := float64(wind) * 3.6
	v := math.Pow(kmh, 0.16)
	return Celsius(13.12 + 0.6215*float64(t) - 11.37*v + 0.3965*float64(t)*v)
}

// mixRatio linearly mixes two temperatures; frac, clamped to [0, 1], is
// the share of b.
func mixRatio(a, b Celsius, frac float64) Celsius {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return a + Celsius(frac)*(b-a)
}
