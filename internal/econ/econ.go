// Package econ adds the economics plane to frostlab: electricity-price and
// carbon-intensity traces, and a per-site cost meter that folds IT power,
// ventilation power, and shed or migrated work into the study's headline
// figures — dollars and grams of CO₂ per completed tar+bzip2+md5
// work-cycle.
//
// The paper's result is thermal ("servers survive around zero degrees");
// the economics plane supplies the objective that makes multi-site control
// interesting: a watt in Helsinki at night on Nordic hydro is not a watt in
// a desert afternoon on a coal peaker. Tariff sources mirror the weather
// plane's design — synthetic diurnal/seasonal models built from seeded
// harmonic mixtures (pure functions of time, byte-identically replayable)
// — so a site is (climate, tariff, controller) and every leg of that tuple
// replays exactly.
package econ

import (
	"fmt"
	"math"
	"sort"
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/units"
	"frostlab/internal/weather"
)

// Rates is one snapshot of the grid at a site: the spot electricity price
// and the marginal carbon intensity of the generation mix.
type Rates struct {
	// Price in $/kWh.
	Price float64
	// Carbon in gCO₂/kWh.
	Carbon float64
}

// Source yields grid rates at any instant. Implementations are pure
// functions of time, safe to share across goroutines after construction.
type Source interface {
	At(t time.Time) Rates
}

// TariffConfig parameterises a synthetic tariff.
type TariffConfig struct {
	// Epoch anchors phases, like weather.Config.Epoch.
	Epoch time.Time
	// BasePrice is the mean spot price, $/kWh.
	BasePrice float64
	// DiurnalAmp is the half-range of the daily price cycle, $/kWh,
	// peaking at PeakHour.
	DiurnalAmp float64
	// DuckAmp carves a midday valley into the price (negative price
	// pressure from solar), $/kWh; 0 disables it.
	DuckAmp float64
	// PeakHour is the local hour of the daily price maximum.
	PeakHour float64
	// Volatility scales seeded multi-hour price wander, $/kWh.
	Volatility float64
	// BaseCarbon is the mean carbon intensity, gCO₂/kWh.
	BaseCarbon float64
	// CarbonSwing is the half-range of the daily carbon cycle, gCO₂/kWh,
	// peaking with the price (fossil peakers are marginal at peak). When
	// DuckAmp is set, the solar belly also cleans the midday mix.
	CarbonSwing float64
	// Seed names the RNG master seed for the wander harmonics.
	Seed string
}

// Validate checks the tariff parameters.
func (c TariffConfig) Validate() error {
	if c.Epoch.IsZero() {
		return fmt.Errorf("econ: tariff needs a non-zero Epoch")
	}
	if c.BasePrice < 0 || c.BaseCarbon < 0 {
		return fmt.Errorf("econ: negative base price/carbon")
	}
	if c.PeakHour < 0 || c.PeakHour >= 24 {
		return fmt.Errorf("econ: peak hour %v out of [0, 24)", c.PeakHour)
	}
	if c.DiurnalAmp < 0 || c.DuckAmp < 0 || c.Volatility < 0 {
		return fmt.Errorf("econ: negative amplitude")
	}
	return nil
}

// Synthetic is a seeded synthetic tariff. Construct with NewSynthetic; the
// zero value is not usable. Unlike weather.Synthetic it keeps no memo: a
// Rates evaluation is a handful of sinusoids, and statelessness makes the
// source trivially safe to share across sites and shards.
type Synthetic struct {
	cfg    TariffConfig
	wander []weather.Harmonic
}

// NewSynthetic builds a synthetic tariff from the config.
func NewSynthetic(cfg TariffConfig) (*Synthetic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := simkernel.NewRNG(cfg.Seed)
	return &Synthetic{
		cfg:    cfg,
		wander: weather.Mix(rng.Stream("price"), 5, cfg.Volatility, 0.4, 7*time.Hour, 6*24*time.Hour),
	}, nil
}

// At implements Source. Prices and intensities are clamped at zero: the
// model does not represent negative-price hours (they exist in real
// markets, but a free-cooling fleet has no storage to exploit them, and a
// sign flip would silently invert every optimisation downstream).
func (s *Synthetic) At(t time.Time) Rates {
	hour := float64(t.Hour()) + float64(t.Minute())/60
	daily := math.Cos(2 * math.Pi * (hour - s.cfg.PeakHour) / 24)
	price := s.cfg.BasePrice + s.cfg.DiurnalAmp*daily
	carbon := s.cfg.BaseCarbon + s.cfg.CarbonSwing*daily
	if s.cfg.DuckAmp > 0 {
		// Solar depresses prices in a belly centred on 13:00 and cleans
		// the marginal mix while it shines.
		belly := math.Exp(-((hour - 13) * (hour - 13)) / (2 * 2.5 * 2.5))
		price -= s.cfg.DuckAmp * belly
		carbon *= 1 - 0.5*belly
	}
	price = weather.AddMix(price, s.wander, t.Sub(s.cfg.Epoch).Seconds())
	return Rates{Price: math.Max(0, price), Carbon: math.Max(0, carbon)}
}

// Tariff is one entry of the tariff preset library.
type Tariff struct {
	// Name is the library key ("nordic-hydro", "coal-peaker", ...).
	Name string
	// Description is the one-line catalogue entry.
	Description string
	// Defaults are the preset's reference parameters (Epoch and Seed are
	// filled in by Source).
	Defaults TariffConfig
}

// The tariff preset library. Magnitudes are stylised 2010-era wholesale
// figures: Nord Pool winter averages near 50 €/MWh, US coal-heavy regions
// near 900 gCO₂/kWh marginal intensity.
var tariffs = []Tariff{
	{
		Name:        "flat",
		Description: "flat baseline: constant price and carbon, isolates thermal effects",
		Defaults:    TariffConfig{BasePrice: 0.08, BaseCarbon: 420, PeakHour: 18},
	},
	{
		Name:        "diurnal-peak",
		Description: "classic evening-peak market: expensive dirty peakers 17–20h",
		Defaults: TariffConfig{BasePrice: 0.10, DiurnalAmp: 0.04, PeakHour: 18,
			Volatility: 0.015, BaseCarbon: 480, CarbonSwing: 140},
	},
	{
		Name:        "nordic-hydro",
		Description: "Nordic hydro/nuclear mix: cheap, clean, nearly flat — the paper's grid",
		Defaults: TariffConfig{BasePrice: 0.055, DiurnalAmp: 0.012, PeakHour: 9,
			Volatility: 0.008, BaseCarbon: 90, CarbonSwing: 25},
	},
	{
		Name:        "coal-peaker",
		Description: "coal-heavy grid with gas peakers: high carbon, sharp afternoon peak",
		Defaults: TariffConfig{BasePrice: 0.12, DiurnalAmp: 0.05, PeakHour: 16,
			Volatility: 0.02, BaseCarbon: 820, CarbonSwing: 180},
	},
	{
		Name:        "solar-duck",
		Description: "high-solar grid: cheap clean midday belly, steep dirty evening ramp",
		Defaults: TariffConfig{BasePrice: 0.11, DiurnalAmp: 0.035, DuckAmp: 0.07,
			PeakHour: 19, Volatility: 0.012, BaseCarbon: 380, CarbonSwing: 160},
	},
}

// Tariffs returns the preset library sorted by name.
func Tariffs() []Tariff {
	out := append([]Tariff(nil), tariffs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TariffNames returns the sorted preset names.
func TariffNames() []string {
	ts := Tariffs()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// LookupTariff returns a preset by name.
func LookupTariff(name string) (Tariff, error) {
	for _, t := range tariffs {
		if t.Name == name {
			return t, nil
		}
	}
	return Tariff{}, fmt.Errorf("econ: unknown tariff %q (have %v)", name, TariffNames())
}

// Source builds the preset's synthetic tariff at the given epoch and seed.
func (tf Tariff) Source(epoch time.Time, seed string) (*Synthetic, error) {
	cfg := tf.Defaults
	cfg.Epoch = epoch
	cfg.Seed = seed + "/tariff/" + tf.Name
	return NewSynthetic(cfg)
}

// VentPower converts a damper position to ventilation (fan) power via the
// cube-law fan affinity relation: a damper fully open with fans at speed
// draws maxFan; throttled flow costs cubically less. The paper's tent used
// passive ventilation plus the machines' own fans; frostlab's enclosures
// scale beyond that, and the cube law is what makes aggressive venting an
// economic decision rather than a free action.
func VentPower(position float64, maxFan units.Watts) units.Watts {
	if position < 0 {
		position = 0
	}
	if position > 1 {
		position = 1
	}
	return units.Watts(float64(maxFan) * position * position * position)
}
