package thermal

import (
	"testing"
	"time"

	"frostlab/internal/units"
	"frostlab/internal/weather"
)

// TestEquilibriumMatchesStepFixedPoint checks that holding conditions
// constant, Step converges to Equilibrium's algebraic answer.
func TestEquilibriumMatchesStepFixedPoint(t *testing.T) {
	for _, mods := range [][]Modification{
		nil,
		{ReflectiveFoil},
		{ReflectiveFoil, RemoveInnerTent, OpenBottom, InstallFan},
	} {
		tent := NewTent()
		for _, m := range mods {
			tent.Apply(m)
		}
		outside := weather.Conditions{Temp: -18, RH: 85, Wind: 4.2, Irradiance: 120}
		const equipment = units.Watts(1400)
		for i := 0; i < 6*60; i++ {
			if err := tent.Step(time.Minute, outside, equipment); err != nil {
				t.Fatal(err)
			}
		}
		inside, _ := tent.Air()
		eq := tent.Equilibrium(outside, equipment)
		if diff := float64(inside - eq); diff > 0.05 || diff < -0.05 {
			t.Fatalf("mods %v: stepped %.3f°C vs equilibrium %.3f°C", mods, inside, eq)
		}
		if eq <= outside.Temp {
			t.Fatalf("mods %v: equilibrium %.3f°C not above outside %.1f°C", mods, eq, outside.Temp)
		}
	}
}
