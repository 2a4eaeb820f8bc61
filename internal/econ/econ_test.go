package econ

import (
	"math"
	"testing"
	"time"

	"frostlab/internal/weather"
)

var testEpoch = weather.ExperimentEpoch

// TestTariffLibrary pins the preset catalogue and its basic shape.
func TestTariffLibrary(t *testing.T) {
	want := []string{"coal-peaker", "diurnal-peak", "flat", "nordic-hydro", "solar-duck"}
	got := TariffNames()
	if len(got) != len(want) {
		t.Fatalf("TariffNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TariffNames() = %v, want %v", got, want)
		}
	}
	for _, tf := range Tariffs() {
		src, err := tf.Source(testEpoch, "lib-seed")
		if err != nil {
			t.Fatalf("%s: %v", tf.Name, err)
		}
		end := testEpoch.AddDate(0, 0, 14)
		for at := testEpoch; at.Before(end); at = at.Add(23 * time.Minute) {
			r := src.At(at)
			if r.Price < 0 || r.Carbon < 0 {
				t.Fatalf("%s at %v: negative rates %+v", tf.Name, at, r)
			}
			if math.IsNaN(r.Price) || math.IsNaN(r.Carbon) {
				t.Fatalf("%s at %v: NaN rates", tf.Name, at)
			}
		}
	}
	if _, err := LookupTariff("barter"); err == nil {
		t.Fatal("unknown tariff accepted")
	}
}

// TestTariffShapes checks the economically meaningful contrasts the E17
// study depends on: hydro is cheap and clean, coal is dirty, the duck
// curve has a midday price valley, evening peaks peak in the evening.
func TestTariffShapes(t *testing.T) {
	avg := func(name string, f func(Rates) float64) float64 {
		tf, err := LookupTariff(name)
		if err != nil {
			t.Fatal(err)
		}
		src, err := tf.Source(testEpoch, "shape-seed")
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		end := testEpoch.AddDate(0, 0, 7)
		for at := testEpoch; at.Before(end); at = at.Add(15 * time.Minute) {
			sum += f(src.At(at))
			n++
		}
		return sum / float64(n)
	}
	price := func(r Rates) float64 { return r.Price }
	carbon := func(r Rates) float64 { return r.Carbon }
	if h, c := avg("nordic-hydro", price), avg("coal-peaker", price); h >= c {
		t.Errorf("hydro price %.3f should undercut coal %.3f", h, c)
	}
	if h, c := avg("nordic-hydro", carbon), avg("coal-peaker", carbon); h >= c/4 {
		t.Errorf("hydro carbon %.0f should be far below coal %.0f", h, c)
	}

	// Duck curve: midday cheaper than evening.
	tf, _ := LookupTariff("solar-duck")
	src, _ := tf.Source(testEpoch, "shape-seed")
	day := testEpoch.AddDate(0, 0, 3)
	noon := src.At(day.Add(13 * time.Hour))
	evening := src.At(day.Add(19 * time.Hour))
	if noon.Price >= evening.Price {
		t.Errorf("duck curve inverted: noon %.3f, evening %.3f", noon.Price, evening.Price)
	}
	if noon.Carbon >= evening.Carbon {
		t.Errorf("solar midday should be cleaner: noon %.0f g, evening %.0f g", noon.Carbon, evening.Carbon)
	}
}

// TestTariffDeterminism: same (preset, epoch, seed) → identical rate paths;
// different seed perturbs the wander (when the preset has any volatility).
func TestTariffDeterminism(t *testing.T) {
	for _, tf := range Tariffs() {
		a, _ := tf.Source(testEpoch, "det")
		b, _ := tf.Source(testEpoch, "det")
		o, _ := tf.Source(testEpoch, "det-2")
		diverged := false
		end := testEpoch.AddDate(0, 0, 10)
		for at := testEpoch; at.Before(end); at = at.Add(37 * time.Minute) {
			if a.At(at) != b.At(at) {
				t.Fatalf("%s at %v: same seed diverged", tf.Name, at)
			}
			if a.At(at) != o.At(at) {
				diverged = true
			}
		}
		if tf.Defaults.Volatility > 0 && !diverged {
			t.Errorf("%s: different seeds produced identical paths", tf.Name)
		}
	}
}

func TestTariffConfigValidate(t *testing.T) {
	good := TariffConfig{Epoch: testEpoch, BasePrice: 0.1, BaseCarbon: 400, PeakHour: 18}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []TariffConfig{
		{BasePrice: 0.1, BaseCarbon: 400, PeakHour: 18},                                  // zero epoch
		{Epoch: testEpoch, BasePrice: -1, BaseCarbon: 400},                               // negative price
		{Epoch: testEpoch, BasePrice: 0.1, BaseCarbon: 400, PeakHour: 25},                // bad hour
		{Epoch: testEpoch, BasePrice: 0.1, BaseCarbon: 400, DiurnalAmp: -0.1},            // negative amp
		{Epoch: testEpoch, BasePrice: 0.1, BaseCarbon: 400, PeakHour: 1, Volatility: -1}, // negative vol
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestVentPower checks the cube-law endpoints and monotonicity.
func TestVentPower(t *testing.T) {
	if got := VentPower(0, 400); got != 0 {
		t.Errorf("VentPower(0) = %v, want 0", got)
	}
	if got := VentPower(1, 400); got != 400 {
		t.Errorf("VentPower(1) = %v, want 400", got)
	}
	if got := VentPower(0.5, 400); math.Abs(float64(got)-50) > 1e-9 {
		t.Errorf("VentPower(0.5) = %v, want 50 (cube law)", got)
	}
	if got := VentPower(-1, 400); got != 0 {
		t.Errorf("VentPower clamps below 0, got %v", got)
	}
	if got := VentPower(2, 400); got != 400 {
		t.Errorf("VentPower clamps above 1, got %v", got)
	}
}

// TestMeterAccounting exercises accumulate/migrate/merge and the derived
// per-cycle figures.
func TestMeterAccounting(t *testing.T) {
	var m Meter
	r := Rates{Price: 0.10, Carbon: 500}
	// One hour at 1 kW IT + 100 W vent = 1.1 kWh → $0.11, 550 g.
	m.Accumulate(time.Hour, 1000, 100, r)
	if math.Abs(float64(m.Energy())-1.1) > 1e-9 {
		t.Fatalf("energy = %v, want 1.1 kWh", m.Energy())
	}
	if math.Abs(m.CostUSD-0.11) > 1e-9 {
		t.Fatalf("cost = %v, want 0.11", m.CostUSD)
	}
	if math.Abs(m.CarbonG-550) > 1e-6 {
		t.Fatalf("carbon = %v, want 550", m.CarbonG)
	}
	if !math.IsNaN(m.CostPerCycle()) {
		t.Fatal("CostPerCycle with zero cycles should be NaN")
	}
	m.CyclesDone = 2
	if math.Abs(m.CostPerCycle()-0.055) > 1e-9 {
		t.Fatalf("cost/cycle = %v, want 0.055", m.CostPerCycle())
	}
	if math.Abs(m.CarbonPerCycle()-275) > 1e-6 {
		t.Fatalf("carbon/cycle = %v, want 275", m.CarbonPerCycle())
	}
	if math.Abs(m.EffectivePrice()-0.10) > 1e-9 {
		t.Fatalf("effective price = %v, want 0.10", m.EffectivePrice())
	}
	m.ChargeMigration(4, 0.05, r) // 0.2 kWh surcharge
	if math.Abs(float64(m.MigrationEnergy)-0.2) > 1e-9 {
		t.Fatalf("migration energy = %v, want 0.2", m.MigrationEnergy)
	}
	if math.Abs(m.CostUSD-0.13) > 1e-9 {
		t.Fatalf("cost after migration = %v, want 0.13", m.CostUSD)
	}

	var fleet Meter
	fleet.Merge(m)
	fleet.Merge(m)
	if math.Abs(fleet.CostUSD-2*m.CostUSD) > 1e-9 || fleet.CyclesDone != 4 {
		t.Fatalf("merge lost value: %+v", fleet)
	}
}

// TestCheckConservation covers the invariant both ways.
func TestCheckConservation(t *testing.T) {
	sites := []Meter{
		{CyclesDone: 6, CyclesShed: 1, CyclesOut: 2},
		{CyclesDone: 3, CyclesIn: 2},
	}
	if err := CheckConservation(sites, 10, 1e-9); err != nil {
		t.Fatalf("balanced fleet rejected: %v", err)
	}
	if err := CheckConservation(sites, 11, 1e-9); err == nil {
		t.Fatal("cycle leak not detected")
	}
	sites[1].CyclesIn = 3
	if err := CheckConservation(sites, 10, 1e-9); err == nil {
		t.Fatal("migration imbalance not detected")
	}
}
