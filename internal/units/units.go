// Package units provides the physical quantities used throughout frostlab:
// temperatures, relative humidities, power, energy, wind speed, and the
// psychrometric relations (dew point, condensation risk) that the paper's
// discussion of humidity and condensation depends on.
//
// All quantities are strong types over float64 so that a Celsius value can
// never be accidentally mixed with a relative humidity. Conversions are
// explicit.
package units

import (
	"errors"
	"fmt"
	"math"
)

// Celsius is a temperature in degrees Celsius.
type Celsius float64

// RelHumidity is a relative humidity in percent (0..100).
type RelHumidity float64

// Watts is an instantaneous power draw.
type Watts float64

// KilowattHours is an amount of energy.
type KilowattHours float64

// MetersPerSecond is a wind speed.
type MetersPerSecond float64

// WattsPerSquareMeter is a solar irradiance.
type WattsPerSquareMeter float64

// AbsoluteZero is the lowest possible Celsius temperature.
const AbsoluteZero Celsius = -273.15

// ErrOutOfRange reports a physically impossible quantity.
var ErrOutOfRange = errors.New("units: quantity out of physical range")

// Valid reports whether the temperature is at or above absolute zero.
func (c Celsius) Valid() bool { return c >= AbsoluteZero }

// Valid reports whether the relative humidity lies in [0, 100].
func (rh RelHumidity) Valid() bool { return rh >= 0 && rh <= 100 }

// Clamp limits the relative humidity to the physical range [0, 100].
func (rh RelHumidity) Clamp() RelHumidity {
	if rh < 0 {
		return 0
	}
	if rh > 100 {
		return 100
	}
	return rh
}

// Fraction returns the relative humidity as a 0..1 fraction.
func (rh RelHumidity) Fraction() float64 { return float64(rh) / 100 }

// String formats the temperature the way the paper prints it, e.g. "-22.0°C".
func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// String formats the relative humidity, e.g. "83.5%RH".
func (rh RelHumidity) String() string { return fmt.Sprintf("%.1f%%RH", float64(rh)) }

// String formats a power draw, e.g. "44.7kW" or "350W".
func (w Watts) String() string {
	if math.Abs(float64(w)) >= 1000 {
		return fmt.Sprintf("%.1fkW", float64(w)/1000)
	}
	return fmt.Sprintf("%.0fW", float64(w))
}

// Energy returns the energy dissipated by drawing the power for the given
// number of hours.
func (w Watts) Energy(hours float64) KilowattHours {
	return KilowattHours(float64(w) / 1000 * hours)
}

// Magnus formula constants over water (Alduchov & Eskridge 1996), valid for
// -40..50 °C, which covers the whole experiment including the -22 °C
// extreme the paper reports.
const (
	magnusA = 17.625
	magnusB = 243.04 // °C
	magnusC = 6.1094 // hPa, saturation vapour pressure at 0 °C
)

// SaturationVaporPressure returns the saturation water vapour pressure in
// hPa at the given temperature, using the Magnus formula over water.
func SaturationVaporPressure(t Celsius) float64 {
	return magnusC * math.Exp(magnusA*float64(t)/(magnusB+float64(t)))
}

// VaporPressure returns the actual water vapour pressure in hPa for the
// given temperature and relative humidity.
func VaporPressure(t Celsius, rh RelHumidity) float64 {
	return rh.Fraction() * SaturationVaporPressure(t)
}

// DewPoint returns the dew point temperature: the temperature at which the
// air's current water vapour content would saturate. Condensation on a
// surface occurs when the surface is colder than the dew point. This is the
// quantity behind the paper's §5 discussion of whether water can condense
// inside the hardware.
func DewPoint(t Celsius, rh RelHumidity) (Celsius, error) {
	if !t.Valid() {
		return 0, fmt.Errorf("dew point of %v: %w", t, ErrOutOfRange)
	}
	rh = rh.Clamp()
	if rh == 0 {
		// No moisture at all: dew point is unboundedly low; report the
		// coldest representable value rather than -Inf.
		return AbsoluteZero, nil
	}
	gamma := math.Log(rh.Fraction()) + magnusA*float64(t)/(magnusB+float64(t))
	dp := Celsius(magnusB * gamma / (magnusA - gamma))
	return dp, nil
}

// RelHumidityAt translates a (temperature, humidity) air parcel to the
// relative humidity it would have at a different temperature, keeping the
// absolute water content fixed. This is how the tent's inside RH is derived
// from outside air that has been warmed by the equipment.
func RelHumidityAt(t Celsius, rh RelHumidity, newT Celsius) RelHumidity {
	e := VaporPressure(t, rh)
	es := SaturationVaporPressure(newT)
	return RelHumidity(e / es * 100).Clamp()
}

// CondensationRisk reports whether a surface at surfaceT exposed to air at
// (airT, rh) would collect condensation, i.e. whether the surface is below
// the air's dew point. The paper argues (§5) that powered equipment stays
// warmer than the intake air and therefore rarely condenses; this predicate
// is what the thermal model uses to test that argument.
func CondensationRisk(airT Celsius, rh RelHumidity, surfaceT Celsius) bool {
	dp, err := DewPoint(airT, rh)
	if err != nil {
		return false
	}
	return surfaceT < dp
}

// DewPointMargin returns how far a surface at surfaceT sits above the dew
// point of air at (airT, rh): positive margins are condensation-safe,
// negative margins mean the surface is already collecting water. It is the
// quantitative form of CondensationRisk — the §5 argument that powered
// equipment "stays warmer than the intake air" is the claim that this
// margin stays positive — and the free-cooling control plane regulates on
// it: a guard trips when the margin shrinks below a configured minimum,
// before condensation actually begins.
func DewPointMargin(airT Celsius, rh RelHumidity, surfaceT Celsius) (Celsius, error) {
	dp, err := DewPoint(airT, rh)
	if err != nil {
		return 0, err
	}
	return surfaceT - dp, nil
}

// AshraeEnvelope is an allowable operating box in the psychrometric plane,
// in the style of the ASHRAE datacom classes: an intake temperature band
// plus moisture ceilings expressed as a maximum dew point and a maximum
// relative humidity. The paper's tent spends weeks outside every published
// class — that is the point of the experiment — so frostlab's control
// plane defends a frost-extended box that admits the sub-zero operation
// the paper demonstrates.
type AshraeEnvelope struct {
	// TempLow and TempHigh bound the allowable intake temperature.
	TempLow, TempHigh Celsius
	// DewPointMax caps the intake air's dew point.
	DewPointMax Celsius
	// RHMax caps the intake relative humidity.
	RHMax RelHumidity
}

// FrostAllowable is the frost-extended allowable box frostlab's control
// plane defends by default: it admits near-freezing intake (the tent's
// normal winter operating point) while still refusing the deep-frost and
// near-saturation corners where the paper's own failures clustered.
var FrostAllowable = AshraeEnvelope{TempLow: 2, TempHigh: 30, DewPointMax: 17, RHMax: 85}

// Validate checks that the box is well-formed.
func (e AshraeEnvelope) Validate() error {
	if !e.TempLow.Valid() || !e.TempHigh.Valid() || e.TempHigh <= e.TempLow {
		return fmt.Errorf("units: envelope temperature band [%v, %v] invalid", e.TempLow, e.TempHigh)
	}
	if !e.DewPointMax.Valid() {
		return fmt.Errorf("units: envelope dew point cap %v: %w", e.DewPointMax, ErrOutOfRange)
	}
	if !e.RHMax.Valid() {
		return fmt.Errorf("units: envelope RH cap %v: %w", e.RHMax, ErrOutOfRange)
	}
	return nil
}

// Contains reports whether intake air at (t, rh) lies inside the allowable
// box: temperature within the band, humidity at or below the RH cap, and
// dew point at or below the dew-point cap. Air whose temperature is outside
// the physical range is never allowable.
func (e AshraeEnvelope) Contains(t Celsius, rh RelHumidity) bool {
	if t < e.TempLow || t > e.TempHigh {
		return false
	}
	if rh.Clamp() > e.RHMax {
		return false
	}
	dp, err := DewPoint(t, rh)
	if err != nil {
		return false
	}
	return dp <= e.DewPointMax
}

// String describes the box, e.g. "[10.0°C, 35.0°C], dp ≤ 21.0°C, rh ≤ 80.0%RH".
func (e AshraeEnvelope) String() string {
	return fmt.Sprintf("[%v, %v], dp ≤ %v, rh ≤ %v", e.TempLow, e.TempHigh, e.DewPointMax, e.RHMax)
}
