package climate

import (
	"crypto/md5"
	"fmt"
	"testing"
	"time"

	"frostlab/internal/units"
	"frostlab/internal/weather"
)

var testEpoch = weather.ExperimentEpoch

// TestLibraryComplete pins the catalogue: every family resolves, validates
// its own defaults, and is reachable through both Lookup and Families.
func TestLibraryComplete(t *testing.T) {
	want := []string{"coastal-fog", "desert", "helsinki", "monsoon", "new-mexico",
		"singapore", "sodankyla", "tropical", "wynyard"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, f := range Families() {
		if err := f.Defaults.Validate(); err != nil {
			t.Errorf("%s defaults invalid: %v", f.Name, err)
		}
		if f.Description == "" {
			t.Errorf("%s has no description", f.Name)
		}
		if _, err := Lookup(f.Name); err != nil {
			t.Errorf("Lookup(%q): %v", f.Name, err)
		}
	}
	if _, err := Lookup("atlantis"); err == nil {
		t.Fatal("Lookup of unknown family should fail")
	}
}

// TestPhysicalBounds sweeps every family over six weeks and asserts the
// physical invariants the downstream psychrometrics rely on: RH clamped to
// [0, 100] % and dew point never above the dry-bulb temperature.
func TestPhysicalBounds(t *testing.T) {
	for _, f := range Families() {
		m, err := f.Model(testEpoch, "bounds-seed")
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		end := testEpoch.AddDate(0, 0, 42)
		for at := testEpoch; at.Before(end); at = at.Add(17 * time.Minute) {
			c := m.At(at)
			if !c.RH.Valid() {
				t.Fatalf("%s at %v: RH %v outside [0, 100]", f.Name, at, c.RH)
			}
			dp, err := units.DewPoint(c.Temp, c.RH)
			if err != nil {
				t.Fatalf("%s at %v: dew point: %v", f.Name, at, err)
			}
			// Magnus inversion at RH = 100 returns the dry-bulb itself;
			// allow float slack only.
			if dp > c.Temp+1e-9 {
				t.Fatalf("%s at %v: dew point %v exceeds dry-bulb %v (RH %v)",
					f.Name, at, dp, c.Temp, c.RH)
			}
			if c.Wind < 0 {
				t.Fatalf("%s at %v: negative wind %v", f.Name, at, c.Wind)
			}
			if c.Irradiance < 0 {
				t.Fatalf("%s at %v: negative irradiance %v", f.Name, at, c.Irradiance)
			}
		}
	}
}

// TestTropicalCondensationStress asserts the tropical family actually
// exercises the condensation-stress path: nights reach near-saturation with
// a dew point within a couple of degrees of the dry-bulb — the regime the
// control plane's dew-point guard exists for — while the stress=0 variant
// does not.
func TestTropicalCondensationStress(t *testing.T) {
	f, err := Lookup("tropical")
	if err != nil {
		t.Fatal(err)
	}
	stressed, err := f.Model(testEpoch, "tropic-seed")
	if err != nil {
		t.Fatal(err)
	}
	calm := f.Defaults
	calm.Stress = 0
	unstressed, err := New("tropical", calm, testEpoch, "tropic-seed")
	if err != nil {
		t.Fatal(err)
	}
	maxRH, maxCalmRH := units.RelHumidity(0), units.RelHumidity(0)
	stressHits := 0
	end := testEpoch.AddDate(0, 0, 14)
	for at := testEpoch; at.Before(end); at = at.Add(10 * time.Minute) {
		c := stressed.At(at)
		if c.RH > maxRH {
			maxRH = c.RH
		}
		margin, err := units.DewPointMargin(c.Temp, c.RH, c.Temp)
		if err != nil {
			t.Fatal(err)
		}
		if margin < 2 { // within 2 °C of condensing on an ambient surface
			stressHits++
		}
		if u := unstressed.At(at); u.RH > maxCalmRH {
			maxCalmRH = u.RH
		}
	}
	if maxRH < 95 {
		t.Fatalf("tropical nights peak at %v RH, want near-saturation ≥ 95%%", maxRH)
	}
	if stressHits == 0 {
		t.Fatal("tropical family never entered the condensation-stress regime")
	}
	if maxCalmRH >= maxRH {
		t.Fatalf("stress overlay inert: stressed max %v, unstressed max %v", maxRH, maxCalmRH)
	}
}

// TestDesertExtremes asserts the desert family produces the 45 °C-class
// afternoons and large diurnal swing the extreme-climate control tests
// build on, with bone-dry air.
func TestDesertExtremes(t *testing.T) {
	f, _ := Lookup("desert")
	m, err := f.Model(testEpoch, "desert-seed")
	if err != nil {
		t.Fatal(err)
	}
	maxT, minT := units.Celsius(-999), units.Celsius(999)
	var rhSum float64
	var n int
	end := testEpoch.AddDate(0, 0, 21)
	for at := testEpoch; at.Before(end); at = at.Add(15 * time.Minute) {
		c := m.At(at)
		if c.Temp > maxT {
			maxT = c.Temp
		}
		if c.Temp < minT {
			minT = c.Temp
		}
		rhSum += float64(c.RH)
		n++
	}
	if maxT < 40 {
		t.Errorf("desert afternoons peak at %v, want ≥ 40 °C", maxT)
	}
	if maxT-minT < 15 {
		t.Errorf("desert diurnal span %v, want ≥ 15 °C", maxT-minT)
	}
	if avg := rhSum / float64(n); avg > 35 {
		t.Errorf("desert mean RH %.1f%%, want dry (≤ 35%%)", avg)
	}
}

// TestMonsoonOnset asserts the monsoon family transitions from a dry
// pre-monsoon regime to sustained saturation bursts after the onset.
func TestMonsoonOnset(t *testing.T) {
	f, _ := Lookup("monsoon")
	m, err := f.Model(testEpoch, "monsoon-seed")
	if err != nil {
		t.Fatal(err)
	}
	avgRH := func(from, to time.Time) float64 {
		var sum float64
		var n int
		for at := from; at.Before(to); at = at.Add(20 * time.Minute) {
			sum += float64(m.At(at).RH)
			n++
		}
		return sum / float64(n)
	}
	pre := avgRH(testEpoch, testEpoch.AddDate(0, 0, 10))
	post := avgRH(testEpoch.AddDate(0, 0, 25), testEpoch.AddDate(0, 0, 35))
	if post < pre+8 {
		t.Fatalf("monsoon onset missing: pre RH %.1f%%, post RH %.1f%%", pre, post)
	}
	if post < 85 {
		t.Fatalf("monsoon season RH %.1f%%, want sustained ≥ 85%%", post)
	}
}

// TestCoastalFogBanks asserts the fog overlay produces saturation pulses
// that also cut irradiance, and that fewer occur at lower stress.
func TestCoastalFogBanks(t *testing.T) {
	f, _ := Lookup("coastal-fog")
	count := func(stress float64) int {
		p := f.Defaults
		p.Stress = stress
		m, err := New("coastal-fog", p, testEpoch, "fog-seed")
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		end := testEpoch.AddDate(0, 0, 28)
		for at := testEpoch; at.Before(end); at = at.Add(30 * time.Minute) {
			if m.At(at).RH > 95 {
				hits++
			}
		}
		return hits
	}
	full, light := count(1), count(0.3)
	if full == 0 {
		t.Fatal("coastal-fog at full stress never saturated")
	}
	if light >= full {
		t.Fatalf("fog frequency should grow with stress: stress=0.3 → %d, stress=1 → %d", light, full)
	}
}

// TestReplayDeterminism: the same (family, params, epoch, seed) tuple is
// byte-identically replayable — across independent constructions and across
// CloneModel copies — and a different seed perturbs the path.
func TestReplayDeterminism(t *testing.T) {
	for _, f := range Families() {
		a, err := f.Model(testEpoch, "replay")
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.Model(testEpoch, "replay")
		if err != nil {
			t.Fatal(err)
		}
		other, err := f.Model(testEpoch, "replay-2")
		if err != nil {
			t.Fatal(err)
		}
		cl := a.(weather.Cloner).CloneModel()
		diverged := false
		end := testEpoch.AddDate(0, 0, 20)
		for at := testEpoch; at.Before(end); at = at.Add(41 * time.Minute) {
			ca, cb, cc := a.At(at), b.At(at), cl.At(at)
			if ca != cb {
				t.Fatalf("%s at %v: independent builds diverge: %+v vs %+v", f.Name, at, ca, cb)
			}
			if ca != cc {
				t.Fatalf("%s at %v: clone diverges: %+v vs %+v", f.Name, at, ca, cc)
			}
			if ca != other.At(at) {
				diverged = true
			}
		}
		if !diverged {
			t.Errorf("%s: different seeds produced identical paths", f.Name)
		}
	}
}

// TestParamsValidate covers the rejection paths.
func TestParamsValidate(t *testing.T) {
	base := Params{Latitude: 10, MeanRH: 50}
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"latitude", func(p *Params) { p.Latitude = 91 }},
		{"rh", func(p *Params) { p.MeanRH = 101 }},
		{"stress", func(p *Params) { p.Stress = 1.5 }},
		{"amplitude", func(p *Params) { p.DiurnalAmplitude = -1 }},
	}
	for _, tc := range cases {
		p := base
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: invalid params accepted", tc.name)
		}
		if _, err := New("desert", p, testEpoch, "s"); err == nil {
			t.Errorf("%s: New accepted invalid params", tc.name)
		}
	}
	if _, err := New("desert", base, time.Time{}, "s"); err == nil {
		t.Error("zero epoch accepted")
	}
}

// TestPaperSitesPinned pins the overlay-free paper sites byte for byte: the
// md5 of a 42-day, 10-minute trace export at seed "pin", captured when
// these sites were presets of internal/weather.
func TestPaperSitesPinned(t *testing.T) {
	golden := map[string]string{
		"new-mexico": "d999a8c0322a858f342651c59ee20dee",
		"singapore":  "3eb916c6317575bdd3b99fafcf664dcc",
		"sodankyla":  "246e82b181cee5931e7f102ad043cbf7",
		"wynyard":    "7e83d584bac7dbd47cc3a1d4615092e7",
	}
	for name, want := range golden {
		f, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Model(testEpoch, "pin")
		if err != nil {
			t.Fatal(err)
		}
		h := md5.New()
		if err := weather.WriteTraceCSV(h, m, testEpoch, testEpoch.AddDate(0, 0, 42), 10*time.Minute); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("%s trace md5 %s, want %s", name, got, want)
		}
	}
}
