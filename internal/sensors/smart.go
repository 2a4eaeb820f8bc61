package sensors

import (
	"fmt"
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/units"
)

// SMARTAttr is a S.M.A.R.T. attribute ID. Only the attributes the paper's
// analysis relies on are modelled.
type SMARTAttr int

// Monitored attributes.
const (
	// AttrTemperature is attribute 194, the drive temperature in °C.
	AttrTemperature SMARTAttr = 194
	// AttrReallocatedSectors is attribute 5.
	AttrReallocatedSectors SMARTAttr = 5
	// AttrPowerOnHours is attribute 9.
	AttrPowerOnHours SMARTAttr = 9
	// AttrPendingSectors is attribute 197.
	AttrPendingSectors SMARTAttr = 197
)

// Disk emulates one hard drive's S.M.A.R.T. state. §4.2.2: "the hard
// drives have passed their S.M.A.R.T. long test runs" — healthy drives
// pass; drives with reallocations beyond a threshold fail the long test.
type Disk struct {
	// realloc is the sector-reallocation stream "disk/<host>/<index>/realloc";
	// Observe draws from it for every drive on every failure tick.
	realloc *simkernel.Stream

	powerOn     time.Duration
	reallocated int
	pending     int
	temp        units.Celsius
	failed      bool
}

// NewDisk returns a fresh drive emulation.
func NewDisk(rng *simkernel.RNG, hostID string, index int) *Disk {
	return &Disk{realloc: rng.Stream(fmt.Sprintf("disk/%s/%d/realloc", hostID, index))}
}

// Observe advances the drive by dt at the given platter temperature. Sector
// reallocations arrive as a slow Poisson process whose rate grows when the
// drive runs hot (above 45 °C) or very cold (below -5 °C) — the "industry
// tribal knowledge" stressors of §3, research question three.
func (d *Disk) Observe(dt time.Duration, temp units.Celsius) {
	if d.failed {
		return
	}
	d.powerOn += dt
	d.temp = temp
	perHour := 0.00002 // baseline: ~1 reallocation per 5.7 drive-years
	if temp > 45 {
		perHour *= 1 + float64(temp-45)/5
	}
	if temp < -5 {
		perHour *= 1 + float64(-5-temp)/10
	}
	n := d.realloc.Poisson(perHour * dt.Hours())
	d.reallocated += n
	if d.reallocated > 50 {
		d.failed = true
	}
}

// Fail hard-fails the drive (used by the failure engine for electronics
// deaths that bypass gradual sector loss).
func (d *Disk) Fail() { d.failed = true }

// Failed reports whether the drive is dead.
func (d *Disk) Failed() bool { return d.failed }

// Read returns the current value of an attribute.
func (d *Disk) Read(attr SMARTAttr) (int, error) {
	switch attr {
	case AttrTemperature:
		return int(d.temp), nil
	case AttrReallocatedSectors:
		return d.reallocated, nil
	case AttrPowerOnHours:
		return int(d.powerOn.Hours()), nil
	case AttrPendingSectors:
		return d.pending, nil
	default:
		return 0, fmt.Errorf("sensors: unknown S.M.A.R.T. attribute %d", attr)
	}
}

// LongTest runs the drive's extended self-test and reports whether it
// passed.
func (d *Disk) LongTest() bool {
	return !d.failed && d.reallocated <= 10
}

// PowerMeter emulates the Technoline Cost Control unit used "to gauge the
// amount of heat generated by the hardware" (§3.3), which local colleagues
// tested and "found to perform very admirably given its price" — a few
// percent of error.
type PowerMeter struct {
	noise *simkernel.Stream // "meter/<name>"
	// RelError is the 1-sigma relative measurement error.
	RelError float64

	energy units.KilowattHours
	last   units.Watts
}

// NewPowerMeter returns a meter with the tested ~2% relative error.
func NewPowerMeter(rng *simkernel.RNG, name string) *PowerMeter {
	return &PowerMeter{noise: rng.Stream("meter/" + name), RelError: 0.02}
}

// Observe integrates the true draw over dt and returns the displayed
// (noisy) instantaneous reading.
func (m *PowerMeter) Observe(dt time.Duration, truth units.Watts) units.Watts {
	m.energy += truth.Energy(dt.Hours())
	reading := float64(truth) * (1 + m.noise.Normal(0, m.RelError))
	if reading < 0 {
		reading = 0
	}
	m.last = units.Watts(reading)
	return m.last
}

// Last returns the most recent displayed reading.
func (m *PowerMeter) Last() units.Watts { return m.last }

// Energy returns the accumulated true energy.
func (m *PowerMeter) Energy() units.KilowattHours { return m.energy }
