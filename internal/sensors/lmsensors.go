// Package sensors emulates the instruments of the experiment: the
// motherboard sensor chips read through Linux' lm-sensors package, the
// Lascar EL-USB-2-LCD temperature/humidity data logger inside the tent,
// hard drive S.M.A.R.T. self-monitoring, and the Technoline Cost Control
// power meter.
//
// The emulations reproduce the instruments' documented error bounds and —
// importantly for reproducing the paper — their *failure behaviours*:
// §4.2.1's sensor chip that reported −111 °C after extreme cold, stopped
// being detected after a redetection attempt, and recovered only after a
// warm reboot; and the Lascar logger whose manual USB readout trips insert
// indoor-temperature outliers into the record.
//
// Each instrument takes its random-stream handles from the experiment's
// RNG when it is built (a chip's "chip/<host>/noise", a drive's
// "disk/<host>/<index>/realloc", a meter's "meter/<name>", the logger's
// "lascar/noise_t" and "lascar/noise_rh"), so a reading draws without
// looking a stream up by name.
package sensors

import (
	"errors"
	"fmt"
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/units"
)

// ChipState is the lm-sensors chip's health state.
type ChipState int

// The §4.2.1 sensor chip state machine.
const (
	// ChipHealthy: readings are accurate within noise.
	ChipHealthy ChipState = iota
	// ChipGlitching: the chip reports "clearly erroneous readings of
	// −111 °C" after operating in extreme cold.
	ChipGlitching
	// ChipUndetected: a redetection attempt made the chip "cease to be
	// detected at all"; reads fail.
	ChipUndetected
)

// String names the state.
func (s ChipState) String() string {
	switch s {
	case ChipHealthy:
		return "healthy"
	case ChipGlitching:
		return "glitching"
	case ChipUndetected:
		return "undetected"
	default:
		return fmt.Sprintf("ChipState(%d)", int(s))
	}
}

// ErrChipNotDetected is returned by Read while the chip is undetected.
var ErrChipNotDetected = errors.New("sensors: chip not detected")

// BogusReading is the impossible value the failed chip reported (§4.2.1).
const BogusReading units.Celsius = -111

// The sensor chip calibration reproduces §4.2.1: the chip began
// misbehaving after "the initial period in the most extreme cold", having
// reported CPU temperatures below −4 °C while outside air reached −22 °C.
const (
	// chipNoiseSigma is the 1-sigma read noise, °C.
	chipNoiseSigma = 0.5
	// chipGlitchBelow is the chip temperature below which cold exposure
	// accumulates toward a glitch.
	chipGlitchBelow units.Celsius = -1
	// chipGlitchAfter is how much cumulative exposure below
	// chipGlitchBelow triggers the glitching state.
	chipGlitchAfter = 10 * time.Hour
)

// Chip emulates one motherboard sensor chip as read via lm-sensors.
type Chip struct {
	// noise is the read-noise stream "chip/<host>/noise", held so the
	// per-read draw looks nothing up.
	noise    *simkernel.Stream
	state    ChipState
	coldTime time.Duration
	// susceptible chips (a per-individual lottery) are the only ones that
	// ever glitch; the paper saw exactly one chip fail across 19 hosts.
	susceptible bool
}

// NewChip returns a chip emulation. susceptibility controls the fraction
// of individual chips that can develop the cold glitch at all.
func NewChip(rng *simkernel.RNG, hostID string, susceptibility float64) *Chip {
	stream := "chip/" + hostID
	return &Chip{
		noise:       rng.Stream(stream + "/noise"),
		susceptible: rng.Stream(stream + "/lottery").Bernoulli(susceptibility),
	}
}

// State returns the chip's current health state.
func (c *Chip) State() ChipState { return c.state }

// Observe advances the chip's internal condition by dt at the given true
// die temperature. Cold exposure accumulates; warm operation does not heal
// a glitching chip (only a warm reboot does).
func (c *Chip) Observe(dt time.Duration, trueTemp units.Celsius) {
	if c.state != ChipHealthy || !c.susceptible {
		return
	}
	if trueTemp < chipGlitchBelow {
		c.coldTime += dt
		if c.coldTime >= chipGlitchAfter {
			c.state = ChipGlitching
		}
	}
}

// Read returns the chip's reported CPU temperature for the given true die
// temperature. A glitching chip returns the bogus −111 °C; an undetected
// chip returns ErrChipNotDetected.
func (c *Chip) Read(trueTemp units.Celsius) (units.Celsius, error) {
	switch c.state {
	case ChipUndetected:
		return 0, ErrChipNotDetected
	case ChipGlitching:
		return BogusReading, nil
	default:
		noise := c.noise.Normal(0, chipNoiseSigma)
		return trueTemp + units.Celsius(noise), nil
	}
}

// Redetect models re-probing the chip with hopes of resetting it. On a
// glitching chip this backfires exactly as in the paper: "the opposite
// resulted, and the sensor chip ceased to be detected at all". On a
// healthy chip it is harmless.
func (c *Chip) Redetect() {
	if c.state == ChipGlitching {
		c.state = ChipUndetected
	}
}

// WarmReboot models the risked warm system reboot "which caused the sensor
// chip to work again". It clears any failure state and the cold-exposure
// accumulator.
func (c *Chip) WarmReboot() {
	c.state = ChipHealthy
	c.coldTime = 0
}
