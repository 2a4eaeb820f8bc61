// Package weather generates and replays the outdoor conditions that drive a
// frostlab experiment. It is the stand-in for the SMEAR III weather station
// next to the Helsinki CS building (co-operated with the Finnish
// Meteorological Institute) that the paper used for its outside data.
//
// Two sources are provided:
//
//   - Synthetic: a climatological model of a Southern-Finland winter at
//     60.2 °N — seasonal trend, diurnal cycle, multi-day synoptic variation,
//     anchored cold-snap events, humidity, wind, solar irradiance, and
//     snowfall — built from seeded sinusoid mixtures so that conditions are
//     a pure function of time (random access, fully deterministic).
//
//   - Trace: replay of a recorded CSV trace with linear interpolation, so
//     real station data can be substituted for the synthetic model without
//     touching any downstream code.
//
// A model that implements Cloner promises that each clone's At is a pure
// function of t, because clones are evaluated ahead of time on other
// goroutines: the sharded engine steps one per shard, and the classic
// engine has Ahead fill a ring of upcoming minutes on a second core.
//
// The reference model ReferenceWinter0910 is calibrated against the values
// the paper reports: the prototype weekend (Feb 12–15, 2010) averaging
// −9.2 °C with a minimum of −10.2 °C, and a season minimum of −22 °C.
package weather

import (
	"fmt"
	"math"
	"sync"
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/units"
)

// Conditions is one snapshot of outdoor weather.
type Conditions struct {
	Temp       units.Celsius
	RH         units.RelHumidity
	Wind       units.MetersPerSecond
	Irradiance units.WattsPerSquareMeter
	// SnowfallRate is liquid-water-equivalent precipitation falling as
	// snow, in mm/h. The tent exists to keep this away from the hardware.
	SnowfallRate float64
}

// Model yields outdoor conditions at any instant.
type Model interface {
	At(t time.Time) Conditions
}

// Cloner is a Model that can produce independent copies of itself. The
// sharded core engine clones its weather model once per shard, and the
// classic engine evaluates a clone ahead of time on another goroutine
// (see Ahead). A clone's At must therefore be a pure function of t: models
// may memoize (Synthetic does), so concurrent users need private copies to
// stay race-free, but every copy must return the same Conditions for the
// same instant, whenever and in whatever order it is asked.
type Cloner interface {
	Model
	CloneModel() Model
}

// HelsinkiLatitude is the latitude of the experiment site in degrees north.
const HelsinkiLatitude = 60.2

// Harmonic is one component of a seeded sinusoid mixture. The weather,
// climate-overlay and tariff models all draw theirs with Mix and evaluate
// them at the seconds elapsed since their epoch, computed once per
// instant.
type Harmonic struct {
	Amp    float64
	Period float64 // seconds
	Phase  float64 // radians
}

// At returns the harmonic's value sec seconds after its epoch.
func (h Harmonic) At(sec float64) float64 {
	x := sec / h.Period
	return h.Amp * math.Sin(2*math.Pi*x+h.Phase)
}

// Mix draws n harmonics from stream: harmonic i has period
// minP + i/n·(maxP−minP), amplitude ampScale·U(ampLo, 1)/n·2 and a
// uniform phase, drawn in that order.
func Mix(stream *simkernel.Stream, n int, ampScale, ampLo float64, minP, maxP time.Duration) []Harmonic {
	hs := make([]Harmonic, n)
	for i := range hs {
		frac := float64(i) / float64(n)
		p := time.Duration(float64(minP) + frac*float64(maxP-minP))
		hs[i] = Harmonic{
			Amp:    ampScale * stream.Uniform(ampLo, 1.0) / float64(n) * 2,
			Period: p.Seconds(),
			Phase:  stream.Uniform(0, 2*math.Pi),
		}
	}
	return hs
}

// AddMix returns acc plus each harmonic of hs at sec, added one by one
// in order.
func AddMix(acc float64, hs []Harmonic, sec float64) float64 {
	for _, h := range hs {
		acc += h.At(sec)
	}
	return acc
}

// coldSnap is a Gaussian-shaped temperature dip anchoring an extreme event.
type coldSnap struct {
	center time.Time
	depth  float64 // °C, positive = this much colder
	sigma  time.Duration
}

func (c coldSnap) at(t time.Time) float64 {
	d := t.Sub(c.center).Seconds() / c.sigma.Seconds()
	return -c.depth * math.Exp(-d*d/2)
}

// Synthetic is the climatological winter model. Construct with NewSynthetic
// or ReferenceWinter0910; the zero value is not usable.
type Synthetic struct {
	epoch     time.Time
	latitude  float64
	meanTemp  float64    // seasonal mean temperature at epoch, °C
	warming   float64    // seasonal trend, °C/day
	diurnalA  float64    // °C amplitude of the daily cycle at epoch
	synoptic  []Harmonic // multi-day temperature variation
	humid     []Harmonic // RH variation
	windH     []Harmonic // wind variation
	cloudH    []Harmonic // cloud-fraction variation
	snaps     []coldSnap
	windMean  float64
	rhMean    float64
	tempNoise []Harmonic // short-period jitter standing in for turbulence

	// Same-instant memo: within one simulated instant the environment step,
	// the failure step, and the station sampler all query the same t, so the
	// harmonic mixture is evaluated once and replayed. Returning the cached
	// Conditions for the exact same instant is bit-identical by
	// construction. The memo makes At unsafe for concurrent use on a shared
	// model; every simulation builds its own Synthetic per run.
	memoT  time.Time
	memoC  Conditions
	memoOK bool
}

// Config parameterises NewSynthetic.
type Config struct {
	// Epoch is the reference instant of the model (phases are relative to
	// it); conditions may be queried before or after it.
	Epoch time.Time
	// Latitude in degrees north; controls day length and solar elevation.
	Latitude float64
	// MeanTempAtEpoch is the seasonal mean temperature at the epoch, °C.
	MeanTempAtEpoch float64
	// WarmingPerDay is the springtime trend in °C/day.
	WarmingPerDay float64
	// DiurnalAmplitude is the half-range of the daily temperature cycle
	// at the epoch, °C. It grows with the sun through spring.
	DiurnalAmplitude float64
	// SynopticAmplitude scales the multi-day weather-system variation, °C.
	SynopticAmplitude float64
	// MeanRH is the average relative humidity, percent.
	MeanRH float64
	// MeanWind is the average wind speed, m/s.
	MeanWind float64
	// ColdSnaps anchors extreme events at fixed dates.
	ColdSnaps []ColdSnap
	// Seed names the RNG master seed for phases and amplitudes.
	Seed string
}

// ColdSnap describes an anchored extreme cold event for Config.
type ColdSnap struct {
	Center time.Time
	// Depth is how much colder than the seasonal mean the snap bottoms
	// out, in °C.
	Depth float64
	// HalfWidth is the snap's Gaussian sigma.
	HalfWidth time.Duration
}

// NewSynthetic builds a synthetic weather model from the config.
func NewSynthetic(cfg Config) (*Synthetic, error) {
	if cfg.Epoch.IsZero() {
		return nil, fmt.Errorf("weather: config needs a non-zero Epoch")
	}
	if cfg.Latitude < -90 || cfg.Latitude > 90 {
		return nil, fmt.Errorf("weather: latitude %v out of range", cfg.Latitude)
	}
	if cfg.MeanRH < 0 || cfg.MeanRH > 100 {
		return nil, fmt.Errorf("weather: mean RH %v out of range", cfg.MeanRH)
	}
	rng := simkernel.NewRNG(cfg.Seed)
	s := &Synthetic{
		epoch:     cfg.Epoch,
		latitude:  cfg.Latitude,
		meanTemp:  cfg.MeanTempAtEpoch,
		warming:   cfg.WarmingPerDay,
		diurnalA:  cfg.DiurnalAmplitude,
		synoptic:  Mix(rng.Stream("synoptic"), 7, cfg.SynopticAmplitude, 0.4, 40*time.Hour, 15*24*time.Hour),
		humid:     Mix(rng.Stream("humidity"), 5, 9, 0.4, 20*time.Hour, 8*24*time.Hour),
		windH:     Mix(rng.Stream("wind"), 5, 2.2, 0.4, 6*time.Hour, 5*24*time.Hour),
		cloudH:    Mix(rng.Stream("cloud"), 5, 0.5, 0.4, 12*time.Hour, 9*24*time.Hour),
		tempNoise: Mix(rng.Stream("noise"), 4, 0.6, 0.4, 9*time.Minute, 3*time.Hour),
		windMean:  cfg.MeanWind,
		rhMean:    cfg.MeanRH,
	}
	for _, cs := range cfg.ColdSnaps {
		s.snaps = append(s.snaps, coldSnap{center: cs.Center, depth: cs.Depth, sigma: cs.HalfWidth})
	}
	return s, nil
}

// ExperimentEpoch is the start of the paper's prototype phase: Friday,
// February 12th, 2010. Times are UTC+2 (Finnish winter time) expressed in
// UTC for simplicity; the 2-hour offset is irrelevant to the physics.
var ExperimentEpoch = time.Date(2010, time.February, 12, 0, 0, 0, 0, time.UTC)

// ReferenceWinter0910 is the calibrated model of the winter of 2009–2010 in
// Helsinki used by the reproduction. Calibration targets, from the paper:
//
//   - Feb 12–15 weekend: minimum −10.2 °C, average −9.2 °C (§3.1)
//   - season minimum −22 °C, encountered by the longest-running host (§4.2.1)
//   - spring warm-up through March (§5 "conditions are likely to shift rapidly")
func ReferenceWinter0910(seed string) *Synthetic {
	s, err := NewSynthetic(Config{
		Epoch:             ExperimentEpoch,
		Latitude:          HelsinkiLatitude,
		MeanTempAtEpoch:   -9.0,
		WarmingPerDay:     0.24, // ≈ +10.5 °C over Feb 12 – Mar 26
		DiurnalAmplitude:  2.0,
		SynopticAmplitude: 4.5,
		MeanRH:            84,
		MeanWind:          3.8,
		ColdSnaps: []ColdSnap{
			// The −22 °C extreme about a week into the normal phase.
			{Center: ExperimentEpoch.AddDate(0, 0, 13), Depth: 13.5, HalfWidth: 26 * time.Hour},
			// A secondary early-March snap.
			{Center: ExperimentEpoch.AddDate(0, 0, 24), Depth: 7, HalfWidth: 16 * time.Hour},
		},
		Seed: seed,
	})
	if err != nil {
		// The reference config is a compile-time constant; an error here is
		// a programming bug, not a runtime condition.
		panic("weather: reference config invalid: " + err.Error())
	}
	return s
}

// At returns the conditions at t. It is a pure function of t, memoized for
// the most recently queried instant: the simulation's environment step,
// failure step, and station sampler all land on the same minute, so the
// harmonic mixture is evaluated once per simulated instant instead of once
// per subsystem. The memo makes At unsafe for concurrent use on a shared
// model (each replicate constructs its own). The memo matches the
// Location as well as the instant, since the clock and the day of year
// that eval reads depend on it.
func (s *Synthetic) At(t time.Time) Conditions {
	if s.memoOK && t.Equal(s.memoT) && t.Location() == s.memoT.Location() {
		return s.memoC
	}
	c := s.eval(t)
	s.memoT, s.memoC, s.memoOK = t, c, true
	return c
}

// Clone returns an independent copy of the model with a cold memo. The
// harmonic mixtures are immutable after construction and shared; only the
// per-instant memo is private, so clones evaluate the exact same pure
// function of time without racing on the cache.
func (s *Synthetic) Clone() *Synthetic {
	c := *s
	c.memoT, c.memoC, c.memoOK = time.Time{}, Conditions{}, false
	return &c
}

// CloneModel implements Cloner.
func (s *Synthetic) CloneModel() Model { return s.Clone() }

// eval computes the conditions at t from the time since the epoch, taken
// once: every harmonic sees the same elapsed seconds, and the seasonal
// mean and the diurnal growth the same elapsed days.
func (s *Synthetic) eval(t time.Time) Conditions {
	elapsed := t.Sub(s.epoch)
	sec := elapsed.Seconds()
	days := elapsed.Hours() / 24
	hh, mm, ss := t.Clock()
	elev := solarElevation(s.latitude, t.YearDay(), hh, mm, ss)
	cloud := s.cloudFraction(sec)

	seasonal := s.meanTemp + s.warming*days
	temp := seasonal
	// Diurnal cycle: coldest near 06:00, warmest near 15:00 local; its
	// amplitude grows as the sun climbs through spring.
	diurnalGrowth := 1 + math.Max(0, days)*0.02
	temp += s.diurnalA * diurnalGrowth * minuteTable()[hh*60+mm].diurnal
	temp = AddMix(temp, s.synoptic, sec)
	temp = AddMix(temp, s.tempNoise, sec)
	for _, c := range s.snaps {
		temp += c.at(t)
	}

	// RH: high base in winter; anticorrelated with temperature anomaly
	// (cold snaps are dry, Arctic air), plus its own variation.
	anomaly := temp - seasonal
	rh := AddMix(s.rhMean-0.9*anomaly, s.humid, sec)
	// Overcast air is moister.
	rh += 8 * (cloud - 0.5)

	wind := AddMix(s.windMean, s.windH, sec)
	if wind < 0 {
		wind = 0
	}

	irr := ClearSkyIrradiance(elev) * (1 - 0.75*cloud)

	// Snow falls from overcast skies at sub-+1 °C temperatures.
	snow := 0.0
	if temp < 1 && cloud > 0.72 {
		snow = (cloud - 0.72) / 0.28 * 1.8 // up to 1.8 mm/h w.e.
	}

	return Conditions{
		Temp:         units.Celsius(temp),
		RH:           units.RelHumidity(rh).Clamp(),
		Wind:         units.MetersPerSecond(wind),
		Irradiance:   units.WattsPerSquareMeter(irr),
		SnowfallRate: snow,
	}
}

// cloudFraction returns the 0..1 cloud cover sec seconds after the epoch.
func (s *Synthetic) cloudFraction(sec float64) float64 {
	c := AddMix(0.62, s.cloudH, sec) // Finnish winters are mostly overcast
	if c < 0 {
		c = 0
	}
	if c > 1 {
		c = 1
	}
	return c
}

// SolarElevation returns the sun's elevation angle in degrees above the
// horizon at the given latitude and instant (negative below the horizon).
// It uses the standard declination approximation; minute-level accuracy is
// ample for a heat-balance model.
func SolarElevation(latitudeDeg float64, t time.Time) float64 {
	hh, mm, ss := t.Clock()
	return solarElevation(latitudeDeg, t.YearDay(), hh, mm, ss)
}

// solarElevation is SolarElevation on a clock reading and day of year.
// Whole minutes, where the simulations sample, take the declination and
// hour-angle cosine from the calendar tables; other instants compute the
// same expressions inline.
func solarElevation(latitudeDeg float64, yday, hh, mm, ss int) float64 {
	day := dayTable()[yday]
	var cosH float64
	if ss == 0 {
		cosH = minuteTable()[hh*60+mm].cosHourAngle
	} else {
		cosH = cosHourAngle(float64(hh) + float64(mm)/60 + float64(ss)/3600)
	}
	lat := latitudeDeg * math.Pi / 180
	sinElev := math.Sin(lat)*day.sinDecl + math.Cos(lat)*day.cosDecl*cosH
	return math.Asin(sinElev) * 180 / math.Pi
}

// declination returns the sine and cosine of the sun's declination on day
// of year doy.
func declination(doy int) (sin, cos float64) {
	decl := -23.44 * math.Cos(2*math.Pi/365*(float64(doy)+10)) // degrees
	d := decl * math.Pi / 180
	return math.Sin(d), math.Cos(d)
}

// cosHourAngle returns the cosine of the sun's hour angle at hour of day
// hour.
func cosHourAngle(hour float64) float64 {
	hourAngle := (hour - 12) * 15 // degrees
	return math.Cos(hourAngle * math.Pi / 180)
}

// dayTrig and minuteTrig hold the calendar trig that depends only on the
// day of the year or the minute of the day.
type dayTrig struct{ sinDecl, cosDecl float64 }

type minuteTrig struct {
	cosHourAngle float64
	// diurnal is the phase of Synthetic's daily temperature cycle,
	// sin(2π(hour−10.5)/24).
	diurnal float64
}

// dayTable and minuteTable are built once per process, by whichever model
// first asks, and are read-only afterwards, so every model and clone
// shares them without a lock. dayTable is indexed by day of year (1..366),
// minuteTable by minute of day.
var (
	dayTable = sync.OnceValue(func() *[367]dayTrig {
		var tab [367]dayTrig
		for doy := 1; doy < len(tab); doy++ {
			tab[doy].sinDecl, tab[doy].cosDecl = declination(doy)
		}
		return &tab
	})
	minuteTable = sync.OnceValue(func() *[24 * 60]minuteTrig {
		var tab [24 * 60]minuteTrig
		for i := range tab {
			hour := float64(i/60) + float64(i%60)/60
			tab[i] = minuteTrig{
				cosHourAngle: cosHourAngle(hour),
				diurnal:      math.Sin(2 * math.Pi * (hour - 10.5) / 24),
			}
		}
		return &tab
	})
)

// ClearSkyIrradiance returns an approximate clear-sky global horizontal
// irradiance in W/m² for the given solar elevation in degrees, using a
// simple air-mass attenuation model.
func ClearSkyIrradiance(elevationDeg float64) float64 {
	if elevationDeg <= 0 {
		return 0
	}
	sinE := math.Sin(elevationDeg * math.Pi / 180)
	// Kasten-Young-style air mass, simplified.
	am := 1 / (sinE + 0.50572*math.Pow(elevationDeg+6.07995, -1.6364))
	const solarConst = 1361.0
	return solarConst * sinE * math.Pow(0.7, math.Pow(am, 0.678))
}
