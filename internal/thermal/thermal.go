// Package thermal models the thermal environments of the experiment: the
// camping tent on the roof terrace, the plastic-box prototype enclosure,
// the climate-controlled basement housing the control group, and the
// temperatures of components inside a powered machine.
//
// The tent is a lumped-capacitance heat balance over the four factors the
// paper ranks in §3.2: outside air temperature, sunlight and wind,
// equipment power draw, and which tent flaps are open. The paper's four
// mitigation events — R (reflective foil), I (inner tent removal), B
// (bottom tarpaulin removal), F (tabletop fan) — are modelled as runtime
// modifications that change the envelope's conductance and solar aperture.
package thermal

import (
	"fmt"
	"math"
	"time"

	"frostlab/internal/units"
	"frostlab/internal/weather"
)

// Modification is one of the paper's envelope changes, in the order they
// appear beneath Fig. 3.
type Modification int

// The four modifications from §4.1.
const (
	// ReflectiveFoil is "R": a partial rescue-sheet cover reflecting
	// sunlight off the fabric.
	ReflectiveFoil Modification = iota
	// RemoveInnerTent is "I": cutting open the inner fabric layer.
	RemoveInnerTent
	// OpenBottom is "B": partial removal of the bottom tarpaulin, letting
	// cool air circulate through the elevated floor.
	OpenBottom
	// InstallFan is "F": a standard-issue tabletop motorized fan.
	InstallFan
)

// String returns the single-letter code used in the paper's Fig. 3.
func (m Modification) String() string {
	switch m {
	case ReflectiveFoil:
		return "R"
	case RemoveInnerTent:
		return "I"
	case OpenBottom:
		return "B"
	case InstallFan:
		return "F"
	default:
		return fmt.Sprintf("Modification(%d)", int(m))
	}
}

// The paper's three-person camping tent, calibrated so that ~1.4 kW of
// equipment initially holds it ≈15 °C above ambient, shrinking to ≈4–5 °C
// after all four modifications — the trajectory visible in Fig. 3.
const (
	// tentHeatCapacity is the tent air volume plus fabric and equipment
	// surfaces (≈ tent air + fabric + case shells), J/K.
	tentHeatCapacity = 120e3
	// tentBaseConductance is the envelope heat loss coefficient with the
	// tent as shipped (both layers, tarpaulin closed), W/K. The paper
	// found the tent "surprisingly good at retaining heat".
	tentBaseConductance = 90
	// tentWindConductancePerMS adds conductance per m/s of outside wind,
	// W/K. The tent is designed to block wind chill, so this starts small
	// and grows with each opening modification.
	tentWindConductancePerMS = 3
	// tentSolarAperture is the effective solar collection area times
	// absorptivity, m². Dark fabric in direct sun gains heat fast.
	tentSolarAperture = 2.5
	// tentMoistureExchange is how quickly inside vapour pressure relaxes
	// to outside vapour pressure, at base ventilation.
	tentMoistureExchange = 90 * time.Minute
)

// Tent is the roof-terrace enclosure. Advance it with Step; read it with
// Air. The zero value is unusable — use NewTent.
type Tent struct {
	// vent holds the fractional application level of each modification,
	// indexed by Modification. The paper's discrete events set a level to
	// exactly 1 (Apply); the closed-loop controller sweeps all four levels
	// continuously through SetVentilation. Level 0 means "as shipped".
	vent [4]float64
	// damper is the last commanded continuous position (SetVentilation);
	// Apply does not change it.
	damper float64

	insideTemp  units.Celsius
	insideVapor float64 // hPa, tracks the inside absolute moisture
	lastOutside weather.Conditions
	initialized bool
}

// NewTent returns a tent with no modifications applied.
func NewTent() *Tent { return &Tent{} }

// Name implements Environment.
func (t *Tent) Name() string { return "tent" }

// Apply enables a modification fully. Applying one twice is a no-op; the
// discrete events are never reverted (the paper only ever opened the tent
// up further).
func (t *Tent) Apply(m Modification) { t.vent[m] = 1 }

// Applied reports whether the modification is fully active.
func (t *Tent) Applied(m Modification) bool { return t.vent[m] >= 1 }

// Level returns the modification's fractional application level in [0, 1].
func (t *Tent) Level(m Modification) float64 { return t.vent[m] }

// SetVentilation maps a continuous damper position in [0, 1] onto the
// R/I/B/F ladder (see Ladder) and applies the resulting fractional levels,
// overwriting any previously applied discrete modifications. Position 0 is
// the tent as shipped; position 1 is the paper's fully modified tent. This
// is the actuator surface of the closed-loop controller: the paper's four
// one-way calendar events become two endpoints of one reversible axis.
func (t *Tent) SetVentilation(pos float64) {
	t.damper = clamp01(pos)
	t.vent = Ladder(t.damper)
}

// Ladder maps a continuous damper position in [0, 1] to fractional
// application levels of the four envelope modifications, indexed by
// Modification. The rungs open in the paper's calendar order — R, I, B,
// F — with each quarter of damper travel blending in the next rung, so
// positions 0.25, 0.5, 0.75 and 1 reproduce the four discrete states of
// the paper's ladder exactly (see the bitwise endpoint test).
func Ladder(pos float64) [4]float64 {
	pos = clamp01(pos)
	var mix [4]float64
	order := [4]Modification{ReflectiveFoil, RemoveInnerTent, OpenBottom, InstallFan}
	for i, m := range order {
		f := pos*4 - float64(i)
		mix[m] = clamp01(f)
	}
	return mix
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// conductance returns the current envelope heat-loss coefficient in W/K
// for the given outside wind. Fully applied modifications (level exactly 1)
// take the same float operations as the original discrete model, so a
// ladder endpoint is bit-identical to the corresponding Apply sequence;
// fractional levels interpolate each rung's effect linearly.
func (t *Tent) conductance(wind units.MetersPerSecond) float64 {
	g := float64(tentBaseConductance)
	windG := float64(tentWindConductancePerMS)
	if f := t.vent[RemoveInnerTent]; f >= 1 {
		g *= 1.45 // one fabric layer instead of two
		windG *= 2
	} else if f > 0 {
		g *= 1 + f*0.45
		windG *= 1 + f
	}
	if f := t.vent[OpenBottom]; f >= 1 {
		g *= 1.5 // floor-level cross-draught
		windG *= 2.5
	} else if f > 0 {
		g *= 1 + f*0.5
		windG *= 1 + f*1.5
	}
	if f := t.vent[InstallFan]; f >= 1 {
		g += 120 // forced convection across the envelope openings
	} else if f > 0 {
		g += f * 120
	}
	return g + windG*float64(wind)
}

// solarGain returns the current solar heat input in watts.
func (t *Tent) solarGain(irr units.WattsPerSquareMeter) float64 {
	a := tentSolarAperture
	if f := t.vent[ReflectiveFoil]; f >= 1 {
		a *= 0.35 // the rescue-sheet cover reflects most direct sun
	} else if f > 0 {
		a *= 1 - f*0.65
	}
	return a * float64(irr)
}

// Equilibrium returns the quasi-steady inside air temperature under the
// given outside conditions and equipment power: the fixed point of Step's
// heat balance, outside.Temp + (equipment + solar gain)/conductance. The
// tent's thermal time constant (≈20 min at base conductance) is short
// against the scale engine's 15-minute failure tick, so the sharded core
// uses this algebraic envelope instead of integrating every minute.
func (t *Tent) Equilibrium(outside weather.Conditions, equipment units.Watts) units.Celsius {
	g := t.conductance(outside.Wind)
	return outside.Temp + units.Celsius((float64(equipment)+t.solarGain(outside.Irradiance))/g)
}

// Step advances the tent by dt given the outside conditions and the total
// equipment power dissipated inside. Call it with small steps (a minute or
// less) — it uses a stabilised explicit Euler update.
func (t *Tent) Step(dt time.Duration, outside weather.Conditions, equipment units.Watts) error {
	if dt <= 0 {
		return fmt.Errorf("thermal: non-positive step %v", dt)
	}
	if !t.initialized {
		// Cold start: inside air equals outside air (the tent was erected
		// before any machines were powered).
		t.insideTemp = outside.Temp
		t.insideVapor = units.VaporPressure(outside.Temp, outside.RH)
		t.initialized = true
	}
	sec := dt.Seconds()
	g := t.conductance(outside.Wind)

	// Sub-step so the explicit update stays stable even for long dt.
	tau := tentHeatCapacity / g // thermal time constant, seconds
	steps := int(sec/(tau/4)) + 1
	sub := sec / float64(steps)
	for i := 0; i < steps; i++ {
		flux := g*(float64(outside.Temp)-float64(t.insideTemp)) +
			float64(equipment) +
			t.solarGain(outside.Irradiance)
		t.insideTemp += units.Celsius(flux / tentHeatCapacity * sub)
	}

	// Moisture: inside vapour pressure relaxes toward outside; more
	// ventilation (higher conductance relative to base) mixes faster.
	eOut := units.VaporPressure(outside.Temp, outside.RH)
	mix := sec / tentMoistureExchange.Seconds() * (g / tentBaseConductance)
	if mix > 1 {
		mix = 1
	}
	t.insideVapor += (eOut - t.insideVapor) * mix

	t.lastOutside = outside
	return nil
}

// Air implements Environment. Before the first Step it reports a 0 °C / 50%
// placeholder.
func (t *Tent) Air() (units.Celsius, units.RelHumidity) {
	if !t.initialized {
		return 0, 50
	}
	es := units.SaturationVaporPressure(t.insideTemp)
	rh := units.RelHumidity(t.insideVapor / es * 100).Clamp()
	return t.insideTemp, rh
}

// DeltaT returns the current inside-minus-outside temperature difference.
func (t *Tent) DeltaT() units.Celsius {
	if !t.initialized {
		return 0
	}
	return t.insideTemp - t.lastOutside.Temp
}

// Basement is the control group's environment: the department's civil
// defence shelter with stable, office-type air conditioning, well within
// equipment specifications (§3.4).
type Basement struct {
	// Setpoint is the HVAC target temperature.
	Setpoint units.Celsius
	// Swing is the HVAC hysteresis half-range.
	Swing units.Celsius
	// RH is the (dry, heated-air) relative humidity.
	RH units.RelHumidity
	// Phase advances with Tick to wobble inside the hysteresis band.
	phase float64
}

// NewBasement returns the default control environment: 21 °C ± 0.8, 32 %RH.
func NewBasement() *Basement {
	return &Basement{Setpoint: 21, Swing: 0.8, RH: 32}
}

// Name implements Environment.
func (b *Basement) Name() string { return "basement" }

// Tick advances the HVAC cycle; dt is arbitrary but should match the
// simulation step for a stable wobble period of about 30 minutes.
func (b *Basement) Tick(dt time.Duration) {
	b.phase += dt.Seconds() / (30 * 60) * 2 * 3.14159265358979
}

// Air implements Environment.
func (b *Basement) Air() (units.Celsius, units.RelHumidity) {
	return b.Setpoint + b.Swing*units.Celsius(math.Sin(b.phase)), b.RH
}

// PrototypeBoxes is the prototype phase enclosure: two hard plastic boxes
// that "did not really impede air flow or contain any heat, but served to
// protect against snow" (§3.1). Inside conditions track outside with a
// small fixed offset from the machine's own dissipation.
type PrototypeBoxes struct {
	// Offset is how much warmer the air between the boxes runs than
	// ambient; small because the boxes don't contain heat.
	Offset units.Celsius

	outside weather.Conditions
	seen    bool
}

// NewPrototypeBoxes returns the prototype enclosure with a 0.5 °C offset.
func NewPrototypeBoxes() *PrototypeBoxes { return &PrototypeBoxes{Offset: 0.5} }

// Name implements Environment.
func (p *PrototypeBoxes) Name() string { return "prototype-boxes" }

// Observe records the current outside conditions.
func (p *PrototypeBoxes) Observe(c weather.Conditions) {
	p.outside = c
	p.seen = true
}

// Air implements Environment.
func (p *PrototypeBoxes) Air() (units.Celsius, units.RelHumidity) {
	if !p.seen {
		return 0, 50
	}
	temp := p.outside.Temp + p.Offset
	return temp, units.RelHumidityAt(p.outside.Temp, p.outside.RH, temp)
}
