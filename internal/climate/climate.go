// Package climate is frostlab's scenario library: a catalogue of
// parameterised climate families that turn the single-site Helsinki
// reproduction into a multi-site laboratory. The paper demonstrates
// free-air cooling through one winter at 60 °N; the obvious next question
// — where and when does it pay off? — needs deserts, tropics, fog belts
// and monsoons, each as deterministic and replayable as the calibrated
// winter-0910 model.
//
// It is the repo's one climate catalogue: the paper's comparison sites
// (§1–2: Helsinki, HP's Wynyard, Intel's New Mexico, Sodankylä and a
// tropical contrast) sit beside the stress archetypes, and a new site is one
// more row of data. Every family is a generator over internal/weather's
// Synthetic model plus an optional family-specific overlay (fog banks,
// monsoon bursts, tropical night saturation), built from seeded harmonic
// mixtures so that conditions are a pure function of time: any site is
// climate.New(family, params, epoch, seed) and byte-identically replayable
// at any GOMAXPROCS. Recorded station data enters through
// weather.ReadTraceCSV, which yields the same weather.Model interface.
package climate

import (
	"fmt"
	"sort"
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/units"
	"frostlab/internal/weather"
)

// Params parameterises a family. The zero value selects the family's
// defaults field by field only through Family.Model; New applies Params
// exactly as given.
type Params struct {
	// Latitude in degrees north; controls day length and solar elevation.
	Latitude float64
	// MeanTemp is the seasonal mean temperature at the epoch, °C.
	MeanTemp float64
	// WarmingPerDay is the seasonal trend, °C/day.
	WarmingPerDay float64
	// DiurnalAmplitude is the daily half-range, °C.
	DiurnalAmplitude float64
	// SynopticAmplitude scales multi-day weather-system variation, °C.
	SynopticAmplitude float64
	// MeanRH is the average relative humidity, percent.
	MeanRH float64
	// MeanWind is the average wind speed, m/s.
	MeanWind float64
	// Stress scales the family's characteristic stressor in [0, 1]: cold
	// snaps for helsinki, fog-bank frequency for coastal-fog, night
	// saturation for tropical, burst depth for monsoon. 0 disables it.
	Stress float64
}

// Validate checks the parameters' physical ranges.
func (p Params) Validate() error {
	if p.Latitude < -90 || p.Latitude > 90 {
		return fmt.Errorf("climate: latitude %v out of range", p.Latitude)
	}
	if p.MeanRH < 0 || p.MeanRH > 100 {
		return fmt.Errorf("climate: mean RH %v out of [0, 100]", p.MeanRH)
	}
	if p.Stress < 0 || p.Stress > 1 {
		return fmt.Errorf("climate: stress %v out of [0, 1]", p.Stress)
	}
	if p.DiurnalAmplitude < 0 || p.SynopticAmplitude < 0 || p.MeanWind < 0 {
		return fmt.Errorf("climate: negative amplitude")
	}
	return nil
}

// overlayKind selects a family's post-transform on the base synthetic
// conditions.
type overlayKind int

const (
	overlayNone overlayKind = iota
	overlayTropical
	overlayFog
	overlayMonsoon
	overlayColdSnaps // helsinki: anchored snaps, handled at build time
)

// Family is one entry of the scenario library.
type Family struct {
	// Name is the library key ("desert", "tropical", ...).
	Name string
	// Description is the one-line catalogue entry for -list-climates.
	Description string
	// Defaults are the family's reference parameters.
	Defaults Params

	kind overlayKind
}

// The scenario library. Parameter sets describe the experiment season
// (late winter) at each site, not annual averages. The paper-comparison
// sites other than helsinki carry no overlay (Stress 0).
var families = []Family{
	{
		Name:        "helsinki",
		Description: "Southern-Finland winter, the paper's site: cold snaps, overcast, spring warm-up",
		Defaults: Params{Latitude: 60.2, MeanTemp: -9, WarmingPerDay: 0.24,
			DiurnalAmplitude: 2, SynopticAmplitude: 4.5, MeanRH: 84, MeanWind: 3.8, Stress: 1},
		kind: overlayColdSnaps,
	},
	{
		Name:        "desert",
		Description: "desert diurnal swing: 45 °C afternoons, cool nights, bone-dry air",
		Defaults: Params{Latitude: 33.4, MeanTemp: 31, WarmingPerDay: 0.1,
			DiurnalAmplitude: 13, SynopticAmplitude: 3.5, MeanRH: 18, MeanWind: 4.2, Stress: 1},
		kind: overlayNone,
	},
	{
		Name:        "tropical",
		Description: "tropical humidity: warm nights pushed to saturation, condensation stress",
		Defaults: Params{Latitude: 1.35, MeanTemp: 27.5, WarmingPerDay: 0,
			DiurnalAmplitude: 3, SynopticAmplitude: 1.2, MeanRH: 88, MeanWind: 2.2, Stress: 1},
		kind: overlayTropical,
	},
	{
		Name:        "coastal-fog",
		Description: "coastal fog banks: saturation pulses that cut the sun, mild temperatures",
		Defaults: Params{Latitude: 37.8, MeanTemp: 13, WarmingPerDay: 0.05,
			DiurnalAmplitude: 4, SynopticAmplitude: 2.5, MeanRH: 82, MeanWind: 5, Stress: 1},
		kind: overlayFog,
	},
	{
		Name:        "monsoon",
		Description: "pre-monsoon heat breaking into saturated monsoon bursts after two weeks",
		Defaults: Params{Latitude: 19.1, MeanTemp: 29, WarmingPerDay: 0,
			DiurnalAmplitude: 4.5, SynopticAmplitude: 2, MeanRH: 70, MeanWind: 3, Stress: 1},
		kind: overlayMonsoon,
	},
	{
		Name:        "wynyard",
		Description: "HP's North-East England data centre site: maritime, mild and windy",
		Defaults: Params{Latitude: 54.6, MeanTemp: 4, WarmingPerDay: 0.08,
			DiurnalAmplitude: 3, SynopticAmplitude: 3.5, MeanRH: 82, MeanWind: 5.5},
	},
	{
		Name:        "new-mexico",
		Description: "Intel's air-economizer proof of concept: dry air, wide day-night swing",
		Defaults: Params{Latitude: 35.1, MeanTemp: 6, WarmingPerDay: 0.15,
			DiurnalAmplitude: 9, SynopticAmplitude: 3, MeanRH: 45, MeanWind: 3.5},
	},
	{
		Name:        "sodankyla",
		Description: "Northern Finland: the paper's \"much more extreme conditions\" (§1)",
		Defaults: Params{Latitude: 67.4, MeanTemp: -15, WarmingPerDay: 0.2,
			DiurnalAmplitude: 3, SynopticAmplitude: 6, MeanRH: 86, MeanWind: 3},
	},
	{
		Name:        "singapore",
		Description: "tropical contrast case: no winter to cool with",
		Defaults: Params{Latitude: 1.35, MeanTemp: 27, WarmingPerDay: 0,
			DiurnalAmplitude: 3.5, SynopticAmplitude: 1, MeanRH: 80, MeanWind: 2.5},
	},
}

// Families returns the library sorted by name.
func Families() []Family {
	out := append([]Family(nil), families...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted family names.
func Names() []string {
	fs := Families()
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

// Lookup returns a family by name.
func Lookup(name string) (Family, error) {
	for _, f := range families {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("climate: unknown climate %q (have %v)", name, Names())
}

// Model builds the family at its default parameters.
func (f Family) Model(epoch time.Time, seed string) (weather.Model, error) {
	return build(f, f.Defaults, epoch, seed)
}

// New builds a named family with explicit parameters. The seed feeds every
// stochastic perturbation (synoptic harmonics, overlay phases), so a
// (family, params, epoch, seed) tuple is byte-identically replayable.
func New(name string, p Params, epoch time.Time, seed string) (weather.Model, error) {
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return build(f, p, epoch, seed)
}

// build assembles the base synthetic model and the family overlay.
func build(f Family, p Params, epoch time.Time, seed string) (weather.Model, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", f.Name, err)
	}
	if epoch.IsZero() {
		return nil, fmt.Errorf("climate: %s needs a non-zero epoch", f.Name)
	}
	cfg := weather.Config{
		Epoch:             epoch,
		Latitude:          p.Latitude,
		MeanTempAtEpoch:   p.MeanTemp,
		WarmingPerDay:     p.WarmingPerDay,
		DiurnalAmplitude:  p.DiurnalAmplitude,
		SynopticAmplitude: p.SynopticAmplitude,
		MeanRH:            p.MeanRH,
		MeanWind:          p.MeanWind,
		Seed:              seed + "/" + f.Name,
	}
	if f.kind == overlayColdSnaps && p.Stress > 0 {
		// The paper's winter: a deep anchored snap about two weeks in and a
		// secondary one, scaled by Stress — the same shape the calibrated
		// ReferenceWinter0910 uses.
		cfg.ColdSnaps = []weather.ColdSnap{
			{Center: epoch.AddDate(0, 0, 13), Depth: 13.5 * p.Stress, HalfWidth: 26 * time.Hour},
			{Center: epoch.AddDate(0, 0, 24), Depth: 7 * p.Stress, HalfWidth: 16 * time.Hour},
		}
	}
	base, err := weather.NewSynthetic(cfg)
	if err != nil {
		return nil, fmt.Errorf("climate: %s: %w", f.Name, err)
	}
	if f.kind == overlayNone || f.kind == overlayColdSnaps || p.Stress == 0 {
		return base, nil
	}
	rng := simkernel.NewRNG(seed + "/" + f.Name + "/overlay")
	ov := &overlay{
		base:     base,
		kind:     f.kind,
		stress:   p.Stress,
		epoch:    epoch,
		latitude: p.Latitude,
	}
	switch f.kind {
	case overlayFog:
		// Fog index wanders on synoptic-ish scales; banks roll in when it
		// exceeds the threshold, more often at higher stress.
		ov.index = weather.Mix(rng.Stream("fog"), 5, 1, 0.5, 18*time.Hour, 4*24*time.Hour)
		ov.threshold = 0.55 - 0.35*p.Stress
	case overlayMonsoon:
		// Onset ramps in after two weeks; bursts modulate within the season.
		ov.index = weather.Mix(rng.Stream("burst"), 4, 1, 0.5, 9*time.Hour, 3*24*time.Hour)
		ov.onset = epoch.AddDate(0, 0, 14)
		ov.ramp = 5 * 24 * time.Hour
	case overlayTropical:
		// Small wandering component on top of the deterministic night cycle.
		ov.index = weather.Mix(rng.Stream("night"), 3, 1, 0.5, 12*time.Hour, 2*24*time.Hour)
	}
	return ov, nil
}

// overlay applies a family's characteristic transform on top of the base
// synthetic conditions. It is a pure function of time (the harmonic
// mixtures are immutable after construction), so it inherits the base
// model's determinism; cloning shares the mixtures and clones the base,
// keeping per-shard copies race-free exactly like weather.Synthetic.
type overlay struct {
	base     weather.Cloner
	kind     overlayKind
	stress   float64
	epoch    time.Time
	latitude float64

	index     []weather.Harmonic
	threshold float64
	onset     time.Time
	ramp      time.Duration
}

// At implements weather.Model.
func (o *overlay) At(t time.Time) weather.Conditions {
	c := o.base.At(t)
	sec := t.Sub(o.epoch).Seconds()
	switch o.kind {
	case overlayTropical:
		// Nights near the equator saturate: once the sun is below the
		// horizon the boundary layer cools to its dew point, driving RH
		// toward saturation — the condensation-stress regime the control
		// plane's dew-point guard exists for.
		elev := weather.SolarElevation(o.latitude, t)
		night := clamp01(-elev / 10)
		wander := weather.AddMix(0, o.index, sec)
		nf := clamp01(night*(0.8+0.2*wander)) * o.stress
		// Pull toward saturation, never drying air that is already wetter
		// than the night target.
		if target := 99.8; float64(c.RH) < target {
			rh := float64(c.RH) + (target-float64(c.RH))*nf
			c.RH = units.RelHumidity(rh).Clamp()
		}
	case overlayFog:
		idx := weather.AddMix(0, o.index, sec)
		if idx > o.threshold {
			f := clamp01((idx - o.threshold) / 0.3)
			c.RH = units.RelHumidity(float64(c.RH) + (100-float64(c.RH))*0.9*f).Clamp()
			c.Irradiance *= units.WattsPerSquareMeter(1 - 0.85*f)
			c.Temp -= units.Celsius(2.5 * f)
		}
	case overlayMonsoon:
		m := 0.0
		if t.After(o.onset) {
			m = clamp01(float64(t.Sub(o.onset)) / float64(o.ramp))
		}
		if m > 0 {
			burst := clamp01(weather.AddMix(0.7, o.index, sec))
			mm := m * o.stress
			c.RH = units.RelHumidity(float64(c.RH) + (98-float64(c.RH))*mm*burst).Clamp()
			c.Irradiance *= units.WattsPerSquareMeter(1 - 0.6*mm*burst)
			c.Temp -= units.Celsius(3 * mm * burst)
			c.Wind += units.MetersPerSecond(4 * mm * burst)
		}
	}
	return c
}

// CloneModel implements weather.Cloner: the harmonic mixtures are shared
// (immutable after construction), the memoizing base model is cloned.
func (o *overlay) CloneModel() weather.Model {
	c := *o
	c.base = o.base.CloneModel().(weather.Cloner)
	return &c
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
