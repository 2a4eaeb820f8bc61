package thermal

import (
	"math"
	"testing"
	"time"

	"frostlab/internal/units"
	"frostlab/internal/weather"
)

func newTent(t *testing.T) *Tent {
	t.Helper()
	return NewTent()
}

// steadyTent steps the tent to equilibrium under fixed conditions.
func steadyTent(t *testing.T, tent *Tent, out weather.Conditions, power units.Watts) units.Celsius {
	t.Helper()
	for i := 0; i < 12*60; i++ { // 12 hours of minutes
		if err := tent.Step(time.Minute, out, power); err != nil {
			t.Fatal(err)
		}
	}
	temp, _ := tent.Air()
	return temp
}

var calmNight = weather.Conditions{Temp: -10, RH: 85, Wind: 2, Irradiance: 0}

func TestTentRetainsHeat(t *testing.T) {
	// Unmodified tent with ~1.4 kW inside: §3.2 says it was "surprisingly
	// good at retaining heat". Expect a double-digit ΔT.
	tent := newTent(t)
	inside := steadyTent(t, tent, calmNight, 1400)
	dt := float64(inside - calmNight.Temp)
	if dt < 10 || dt > 22 {
		t.Errorf("unmodified tent ΔT = %.1f°C, want ≈ 15", dt)
	}
}

func TestModificationsReduceDeltaT(t *testing.T) {
	// Each of R(at night: no effect), I, B, F must monotonically reduce ΔT.
	mods := []Modification{RemoveInnerTent, OpenBottom, InstallFan}
	tent := newTent(t)
	prev := float64(steadyTent(t, tent, calmNight, 1400) - calmNight.Temp)
	for _, m := range mods {
		tent.Apply(m)
		cur := float64(steadyTent(t, tent, calmNight, 1400) - calmNight.Temp)
		if cur >= prev {
			t.Errorf("modification %v did not reduce ΔT: %.1f -> %.1f", m, prev, cur)
		}
		prev = cur
	}
	// Fully opened: ΔT should be small, single digits.
	if prev > 8 {
		t.Errorf("fully modified tent ΔT = %.1f°C, want < 8", prev)
	}
}

func TestReflectiveFoilCutsSolarGain(t *testing.T) {
	sunny := weather.Conditions{Temp: -5, RH: 70, Wind: 1, Irradiance: 350}
	bare := newTent(t)
	base := steadyTent(t, bare, sunny, 1400)
	foiled := newTent(t)
	foiled.Apply(ReflectiveFoil)
	covered := steadyTent(t, foiled, sunny, 1400)
	if covered >= base {
		t.Errorf("reflective foil did not cool the tent: %.1f vs %.1f", covered, base)
	}
	if float64(base-covered) < 1 {
		t.Errorf("foil effect implausibly small: %.2f°C", float64(base-covered))
	}
}

func TestWindIncreasesHeatLoss(t *testing.T) {
	windy := calmNight
	windy.Wind = 10
	calm := newTent(t)
	tc := steadyTent(t, calm, calmNight, 1400)
	blown := newTent(t)
	tw := steadyTent(t, blown, windy, 1400)
	if tw >= tc {
		t.Errorf("wind did not increase heat loss: calm %.1f, windy %.1f", tc, tw)
	}
}

func TestTentTracksOutsideWithNoEquipment(t *testing.T) {
	tent := newTent(t)
	inside := steadyTent(t, tent, calmNight, 0)
	if math.Abs(float64(inside-calmNight.Temp)) > 0.5 {
		t.Errorf("empty tent equilibrium %.1f, want ≈ outside %.1f", inside, calmNight.Temp)
	}
}

func TestTentColdStart(t *testing.T) {
	tent := newTent(t)
	if err := tent.Step(time.Minute, calmNight, 1400); err != nil {
		t.Fatal(err)
	}
	temp, _ := tent.Air()
	// One minute in, the tent must still be near outside temperature.
	if math.Abs(float64(temp-calmNight.Temp)) > 2 {
		t.Errorf("cold start temp %.1f, want near %.1f", temp, calmNight.Temp)
	}
}

func TestTentStabilityLongStep(t *testing.T) {
	// A long step must not blow up the explicit integrator.
	tent := newTent(t)
	if err := tent.Step(6*time.Hour, calmNight, 1400); err != nil {
		t.Fatal(err)
	}
	temp, _ := tent.Air()
	if float64(temp) < -30 || float64(temp) > 30 {
		t.Errorf("long step destabilised integrator: %v", temp)
	}
}

func TestTentRejectsBadStep(t *testing.T) {
	tent := newTent(t)
	if err := tent.Step(0, calmNight, 100); err == nil {
		t.Error("zero step accepted")
	}
	if err := tent.Step(-time.Second, calmNight, 100); err == nil {
		t.Error("negative step accepted")
	}
}

// TestNewTentValidation holds the tent calibration to the invariants
// Step divides by: a positive heat capacity, base conductance and
// moisture exchange time constant.
func TestNewTentValidation(t *testing.T) {
	if tentHeatCapacity <= 0 || tentBaseConductance <= 0 {
		t.Errorf("tent heat capacity %v and conductance %v must be positive",
			tentHeatCapacity, tentBaseConductance)
	}
	if tentMoistureExchange <= 0 {
		t.Errorf("moisture exchange time constant %v must be positive", tentMoistureExchange)
	}
}

func TestTentInsideRHLowerWhenWarmer(t *testing.T) {
	// Warm tent + cold moist outside air => inside RH below outside RH.
	tent := newTent(t)
	steadyTent(t, tent, calmNight, 1400)
	_, rh := tent.Air()
	if rh >= calmNight.RH {
		t.Errorf("inside RH %v not below outside %v despite warmer air", rh, calmNight.RH)
	}
	if rh < 10 {
		t.Errorf("inside RH %v implausibly dry", rh)
	}
}

func TestTentRHMoreStableThanOutside(t *testing.T) {
	// §4.1: "the tent has been able to retain more stable relative
	// humidities than outside air". Drive with oscillating outside RH and
	// compare variances.
	tent := newTent(t)
	tent.Apply(RemoveInnerTent)
	var insideVals, outsideVals []float64
	for i := 0; i < 48*60; i++ {
		out := calmNight
		out.RH = units.RelHumidity(75 + 20*math.Sin(float64(i)/180))
		out.Temp = units.Celsius(-10 + 4*math.Sin(float64(i)/300))
		if err := tent.Step(time.Minute, out, 1400); err != nil {
			t.Fatal(err)
		}
		if i > 12*60 { // after spin-up
			_, rh := tent.Air()
			insideVals = append(insideVals, float64(rh))
			outsideVals = append(outsideVals, float64(out.RH))
		}
	}
	if variance(insideVals) >= variance(outsideVals) {
		t.Errorf("inside RH variance %.1f not below outside %.1f", variance(insideVals), variance(outsideVals))
	}
}

func variance(xs []float64) float64 {
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var sq float64
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	return sq / float64(len(xs))
}

func TestTentDeltaT(t *testing.T) {
	tent := newTent(t)
	if tent.DeltaT() != 0 {
		t.Error("uninitialised DeltaT should be 0")
	}
	steadyTent(t, tent, calmNight, 1400)
	if tent.DeltaT() <= 0 {
		t.Errorf("heated tent DeltaT %v, want positive", tent.DeltaT())
	}
}

func TestModificationString(t *testing.T) {
	cases := map[Modification]string{
		ReflectiveFoil: "R", RemoveInnerTent: "I", OpenBottom: "B", InstallFan: "F",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if Modification(42).String() != "Modification(42)" {
		t.Error("unknown modification formatting")
	}
}

func TestApplyIdempotent(t *testing.T) {
	tent := newTent(t)
	tent.Apply(OpenBottom)
	tent.Apply(OpenBottom)
	if !tent.Applied(OpenBottom) {
		t.Error("Applied lost")
	}
	a := steadyTent(t, tent, calmNight, 1400)
	tent.Apply(OpenBottom)
	b := steadyTent(t, tent, calmNight, 1400)
	if math.Abs(float64(a-b)) > 0.1 {
		t.Errorf("re-applying changed equilibrium: %v vs %v", a, b)
	}
}

func TestBasementStable(t *testing.T) {
	b := NewBasement()
	var min, max float64 = math.Inf(1), math.Inf(-1)
	for i := 0; i < 24*60; i++ {
		b.Tick(time.Minute)
		temp, rh := b.Air()
		v := float64(temp)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		if rh != 32 {
			t.Fatalf("basement RH drifted: %v", rh)
		}
	}
	if min < 20 || max > 22 {
		t.Errorf("basement range [%.1f, %.1f], want within 21±0.8", min, max)
	}
	if max-min < 0.5 {
		t.Errorf("basement HVAC wobble too small: %.2f", max-min)
	}
}

func TestPrototypeBoxesTrackOutside(t *testing.T) {
	p := NewPrototypeBoxes()
	p.Observe(weather.Conditions{Temp: -10.2, RH: 88})
	temp, rh := p.Air()
	if math.Abs(float64(temp)-(-10.2+0.5)) > 1e-9 {
		t.Errorf("prototype temp %v, want outside+0.5", temp)
	}
	if rh >= 88 {
		t.Errorf("prototype RH %v should drop below outside when warmed", rh)
	}
}

func TestPrototypeBoxesBeforeObserve(t *testing.T) {
	p := NewPrototypeBoxes()
	temp, rh := p.Air()
	if temp != 0 || rh != 50 {
		t.Errorf("placeholder air (%v, %v)", temp, rh)
	}
}

func TestSteadyStateCPUBelowZero(t *testing.T) {
	// The paper's headline curiosity: CPU operating at −4 °C. A ~90 W
	// prototype in −10 °C intake must put the CPU near but below zero.
	temps, err := SteadyState(-10, 90, 35, GenericPCAirflow)
	if err != nil {
		t.Fatal(err)
	}
	if temps.CPU > 5 || temps.CPU < -8 {
		t.Errorf("prototype CPU %v, want ≈ -4..+4°C band", temps.CPU)
	}
	if temps.CPU <= temps.CaseAir {
		t.Error("CPU must run above case air")
	}
	if temps.CaseAir <= -10 {
		t.Error("case air must run above intake")
	}
}

func TestSteadyStateOrderings(t *testing.T) {
	for name, air := range map[string]AirflowModel{
		"towerA": MediumTowerAirflow, "sffB": SmallFormFactorAirflow, "rackC": RackServerAirflow,
	} {
		temps, err := SteadyState(21, 150, 60, air)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !(temps.CPU > temps.CaseAir && temps.CaseAir > 21 && temps.Disk > 21) {
			t.Errorf("%s: ordering violated: %+v", name, temps)
		}
	}
}

func TestSFFRunsHotterThanTower(t *testing.T) {
	// Vendor B's bad airflow must show up as hotter cases at equal power.
	a, err := SteadyState(21, 120, 50, MediumTowerAirflow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SteadyState(21, 120, 50, SmallFormFactorAirflow)
	if err != nil {
		t.Fatal(err)
	}
	if b.CaseAir <= a.CaseAir {
		t.Errorf("SFF case %v not hotter than tower %v", b.CaseAir, a.CaseAir)
	}
}

func TestSteadyStateValidation(t *testing.T) {
	if _, err := SteadyState(0, 100, 200, GenericPCAirflow); err == nil {
		t.Error("cpu power above total accepted")
	}
	if _, err := SteadyState(0, -1, 0, GenericPCAirflow); err == nil {
		t.Error("negative power accepted")
	}
	if _, err := SteadyState(0, 100, 50, AirflowModel{}); err == nil {
		t.Error("zero conductances accepted")
	}
}

func TestSteadyStateLinearInIntake(t *testing.T) {
	// Component temps must shift 1:1 with intake temperature.
	cold, err := SteadyState(-20, 150, 60, MediumTowerAirflow)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SteadyState(20, 150, 60, MediumTowerAirflow)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(warm.CPU-cold.CPU)-40) > 1e-9 {
		t.Errorf("CPU shift %.2f per 40°C intake shift", float64(warm.CPU-cold.CPU))
	}
}

func BenchmarkTentStep(b *testing.B) {
	tent := NewTent()
	for i := 0; i < b.N; i++ {
		_ = tent.Step(time.Minute, calmNight, 1400)
	}
}

func BenchmarkSteadyState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = SteadyState(-10, 150, 60, MediumTowerAirflow)
	}
}
