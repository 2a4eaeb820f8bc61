package weather_test

import (
	"testing"
	"time"

	"frostlab/internal/climate"
	"frostlab/internal/weather"
)

// The paper's comparison sites (§1–2) live in internal/climate's catalogue;
// these tests check that the weather models built for them keep the
// gradient the paper's feasibility argument walks. They sit in an external
// test package because internal/climate imports internal/weather.

func siteModel(t *testing.T, name, seed string) weather.Model {
	t.Helper()
	f, err := climate.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Model(weather.ExperimentEpoch, seed)
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	return m
}

func TestClimateLibrary(t *testing.T) {
	names := climate.Names()
	if len(names) < 5 {
		t.Fatalf("climate library has %d sites", len(names))
	}
	for _, n := range names {
		f, err := climate.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name != n {
			t.Errorf("site %q names itself %q", n, f.Name)
		}
		cond := siteModel(t, n, "test").At(weather.ExperimentEpoch.Add(36 * time.Hour))
		if !cond.RH.Valid() {
			t.Errorf("%s produced invalid RH %v", n, cond.RH)
		}
	}
	if _, err := climate.Lookup("atlantis"); err == nil {
		t.Error("unknown climate accepted")
	}
}

func TestClimateOrdering(t *testing.T) {
	// Mean February temperature must order: Sodankylä < Helsinki <
	// Wynyard < New Mexico < Singapore.
	order := []string{"sodankyla", "helsinki", "wynyard", "new-mexico", "singapore"}
	epoch := weather.ExperimentEpoch
	var prev float64 = -1e9
	for _, name := range order {
		m := siteModel(t, name, "order")
		var sum float64
		var n int
		for at := epoch; at.Before(epoch.AddDate(0, 0, 14)); at = at.Add(time.Hour) {
			sum += float64(m.At(at).Temp)
			n++
		}
		mean := sum / float64(n)
		if mean <= prev {
			t.Errorf("%s mean %.1f not warmer than previous %.1f", name, mean, prev)
		}
		prev = mean
	}
}

func TestTropicalClimateHasNoWinter(t *testing.T) {
	m := siteModel(t, "singapore", "tropics")
	epoch := weather.ExperimentEpoch
	for at := epoch; at.Before(epoch.AddDate(0, 0, 14)); at = at.Add(3 * time.Hour) {
		if temp := m.At(at).Temp; temp < 15 {
			t.Fatalf("singapore at %v°C", temp)
		}
	}
}

func TestDesertDiurnalSwing(t *testing.T) {
	// New Mexico's dry air gives a much larger day-night swing than
	// maritime Wynyard.
	swing := func(name string) float64 {
		m := siteModel(t, name, "swing")
		var minV, maxV float64 = 1e9, -1e9
		day := weather.ExperimentEpoch.AddDate(0, 0, 3)
		for at := day; at.Before(day.Add(24 * time.Hour)); at = at.Add(30 * time.Minute) {
			v := float64(m.At(at).Temp)
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		return maxV - minV
	}
	if nm, wy := swing("new-mexico"), swing("wynyard"); nm <= wy {
		t.Errorf("new-mexico swing %.1f not above wynyard %.1f", nm, wy)
	}
}
