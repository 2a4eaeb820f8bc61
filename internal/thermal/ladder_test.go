package thermal

import (
	"math"
	"testing"
	"time"

	"frostlab/internal/units"
	"frostlab/internal/weather"
)

func TestLadderMapping(t *testing.T) {
	cases := []struct {
		pos  float64
		want [4]float64 // indexed by Modification: R, I, B, F
	}{
		{0, [4]float64{0, 0, 0, 0}},
		{0.125, [4]float64{0.5, 0, 0, 0}},
		{0.25, [4]float64{1, 0, 0, 0}},
		{0.5, [4]float64{1, 1, 0, 0}},
		{0.625, [4]float64{1, 1, 0.5, 0}},
		{0.75, [4]float64{1, 1, 1, 0}},
		{1, [4]float64{1, 1, 1, 1}},
		{-3, [4]float64{0, 0, 0, 0}},
		{7, [4]float64{1, 1, 1, 1}},
	}
	for _, c := range cases {
		got := Ladder(c.pos)
		for m := ReflectiveFoil; m <= InstallFan; m++ {
			if math.Abs(got[m]-c.want[m]) > 1e-12 {
				t.Errorf("Ladder(%v)[%v] = %v, want %v", c.pos, m, got[m], c.want[m])
			}
		}
	}
}

// TestLadderEndpointsBitwiseMatchDiscreteMods is the determinism contract
// behind the continuous damper: at the four ladder endpoints the
// interpolated envelope must perform the same float operations as the
// original discrete modifications, so a tent driven by SetVentilation and
// a tent driven by Apply produce bit-identical trajectories.
func TestLadderEndpointsBitwiseMatchDiscreteMods(t *testing.T) {
	endpoints := []struct {
		pos  float64
		mods []Modification
	}{
		{0, nil},
		{0.25, []Modification{ReflectiveFoil}},
		{0.5, []Modification{ReflectiveFoil, RemoveInnerTent}},
		{0.75, []Modification{ReflectiveFoil, RemoveInnerTent, OpenBottom}},
		{1, []Modification{ReflectiveFoil, RemoveInnerTent, OpenBottom, InstallFan}},
	}
	for _, ep := range endpoints {
		discrete := NewTent()
		continuous := NewTent()
		for _, m := range ep.mods {
			discrete.Apply(m)
		}
		continuous.SetVentilation(ep.pos)

		// A synthetic but exercising outdoor trajectory: swinging
		// temperature, humidity, wind and sun.
		for i := 0; i < 500; i++ {
			out := weather.Conditions{
				Temp:       units.Celsius(-15 + 20*math.Sin(float64(i)/40)),
				RH:         units.RelHumidity(60 + 30*math.Sin(float64(i)/17)),
				Wind:       units.MetersPerSecond(2 + 2*math.Sin(float64(i)/9)),
				Irradiance: units.WattsPerSquareMeter(200 * math.Max(0, math.Sin(float64(i)/60))),
			}
			if err := discrete.Step(time.Minute, out, 1400); err != nil {
				t.Fatal(err)
			}
			if err := continuous.Step(time.Minute, out, 1400); err != nil {
				t.Fatal(err)
			}
			dT, dRH := discrete.Air()
			cT, cRH := continuous.Air()
			if dT != cT || dRH != cRH {
				t.Fatalf("pos %v step %d: discrete (%v, %v) != continuous (%v, %v)",
					ep.pos, i, dT, dRH, cT, cRH)
			}
		}
	}
}

// TestVentilationMonotone: opening the damper in cold weather must never
// warm the tent — the control loop's plant gain has a fixed sign.
func TestVentilationMonotone(t *testing.T) {
	out := weather.Conditions{Temp: -10, RH: 80, Wind: 3}
	prev := math.Inf(1)
	for pos := 0.0; pos <= 1.0; pos += 0.125 {
		tent := NewTent()
		tent.SetVentilation(pos)
		for i := 0; i < 240; i++ {
			if err := tent.Step(time.Minute, out, 1400); err != nil {
				t.Fatal(err)
			}
		}
		temp, _ := tent.Air()
		if float64(temp) > prev+1e-9 {
			t.Fatalf("pos %v: inside %v warmer than at smaller opening (%v)", pos, temp, prev)
		}
		prev = float64(temp)
	}
}

func TestSetVentilationReversible(t *testing.T) {
	tent := NewTent()
	tent.SetVentilation(1)
	if !tent.Applied(InstallFan) || tent.damper != 1 {
		t.Fatal("full open should apply every rung")
	}
	tent.SetVentilation(0.3)
	if tent.Applied(RemoveInnerTent) {
		t.Fatal("closing the damper must retract later rungs")
	}
	if got := tent.Level(ReflectiveFoil); got != 1 {
		t.Fatalf("R level = %v, want 1 at pos 0.3", got)
	}
	if got := tent.Level(RemoveInnerTent); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("I level = %v, want 0.2 at pos 0.3", got)
	}
}
