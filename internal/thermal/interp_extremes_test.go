package thermal

import (
	"math"
	"testing"
	"time"

	"frostlab/internal/units"
	"frostlab/internal/weather"
)

// These tests pin the continuous R/I/B/F interpolation (Ladder +
// SetVentilation) at the climate extremes the multi-site fleet now visits:
// desert 45 °C intakes, where more damper must always mean a cooler tent,
// and monsoon saturation, where the moisture model must stay physical.

func desertNoon(temp float64) weather.Conditions {
	return weather.Conditions{
		Temp:       units.Celsius(temp),
		RH:         12,
		Wind:       3,
		Irradiance: 850,
	}
}

// TestLadderInterpolationMonotone sweeps the damper axis finely and
// asserts the interpolated rung levels are monotone, continuous, and hit
// the paper's discrete states at the quarter points.
func TestLadderInterpolationMonotone(t *testing.T) {
	prev := Ladder(0)
	for pos := 0.001; pos <= 1.0001; pos += 0.001 {
		mix := Ladder(pos)
		for m := 0; m < 4; m++ {
			if mix[m] < prev[m]-1e-12 {
				t.Fatalf("rung %v regressed at pos %.3f: %v -> %v", Modification(m), pos, prev[m], mix[m])
			}
			if d := mix[m] - prev[m]; d > 0.005 {
				t.Fatalf("rung %v jumped %.4f over a 0.001 position step at %.3f", Modification(m), d, pos)
			}
			if mix[m] < 0 || mix[m] > 1 {
				t.Fatalf("rung %v level %v outside [0,1] at pos %.3f", Modification(m), mix[m], pos)
			}
		}
		prev = mix
	}
	// Quarter points reproduce the paper's calendar ladder.
	for i, want := range [][4]float64{
		{1, 0, 0, 0}, // R
		{1, 1, 0, 0}, // R+I
		{1, 1, 1, 0}, // R+I+B
		{1, 1, 1, 1}, // R+I+B+F
	} {
		pos := float64(i+1) / 4
		got := Ladder(pos)
		order := [4]Modification{ReflectiveFoil, RemoveInnerTent, OpenBottom, InstallFan}
		for j, m := range order {
			if got[m] != want[j] {
				t.Fatalf("Ladder(%.2f)[%v] = %v, want %v", pos, m, got[m], want[j])
			}
		}
	}
}

// TestDesertEquilibriumMonotone: at a 45 °C desert noon, opening the
// damper must monotonically shrink the tent's excess over ambient, and
// even fully open the powered tent stays above outside air — free cooling
// cannot refrigerate.
func TestDesertEquilibriumMonotone(t *testing.T) {
	tent := NewTent()
	out := desertNoon(45)
	const equipment = 1400 // W, the paper's fleet
	prevEq := units.Celsius(math.Inf(1))
	for pos := 0.0; pos <= 1.0001; pos += 0.05 {
		tent.SetVentilation(pos)
		eq := tent.Equilibrium(out, equipment)
		if eq > prevEq+1e-9 {
			t.Fatalf("equilibrium rose from %v to %v when damper opened to %.2f", prevEq, eq, pos)
		}
		if eq <= out.Temp {
			t.Fatalf("powered tent at %v equilibrated below ambient %v at pos %.2f", eq, out.Temp, pos)
		}
		prevEq = eq
	}
	// The full ladder must shed a large share of the closed tent's excess.
	tent.SetVentilation(0)
	closed := tent.Equilibrium(out, equipment) - out.Temp
	tent.SetVentilation(1)
	open := tent.Equilibrium(out, equipment) - out.Temp
	if open > closed/2 {
		t.Fatalf("full ventilation only cut excess %v to %v; expected at least half", closed, open)
	}
}

// TestMonsoonSaturationPhysical steps the tent through saturated monsoon
// air and checks the interpolated moisture exchange stays physical: inside
// RH valid, dew point never above dry-bulb, and more damper pulling inside
// humidity toward the saturated outside faster.
func TestMonsoonSaturationPhysical(t *testing.T) {
	out := weather.Conditions{Temp: 26, RH: 97, Wind: 6, Irradiance: 120}
	run := func(pos float64) units.RelHumidity {
		tent := NewTent()
		tent.SetVentilation(pos)
		// Start from dry air (machines ran through the pre-monsoon), then
		// let the monsoon soak in.
		dry := weather.Conditions{Temp: 33, RH: 25, Wind: 2}
		for i := 0; i < 60; i++ {
			if err := tent.Step(time.Minute, dry, 1400); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 120; i++ {
			if err := tent.Step(time.Minute, out, 1400); err != nil {
				t.Fatal(err)
			}
			temp, rh := tent.Air()
			if !rh.Valid() {
				t.Fatalf("pos %.2f: inside RH %v invalid", pos, rh)
			}
			dp, err := units.DewPoint(temp, rh)
			if err != nil {
				t.Fatal(err)
			}
			if dp > temp+1e-9 {
				t.Fatalf("pos %.2f: dew point %v above dry-bulb %v", pos, dp, temp)
			}
		}
		_, rh := tent.Air()
		return rh
	}
	closed, open := run(0), run(1)
	if open <= closed {
		t.Fatalf("full damper should soak the tent faster: closed %v, open %v", closed, open)
	}
}
