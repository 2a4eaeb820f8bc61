// Package control is frostlab's closed-loop free-cooling control plane: the
// automation the paper's §5 outlook asks for ("automated airflow management
// ... could keep the servers within the allowed operating range"). The 2010
// experiment ran the tent open-loop — four envelope modifications applied on
// calendar dates, chosen by humans watching thermometers. This package
// closes the loop instead: a deterministic controller reads the tent's
// air state each control tick, regulates a continuous ventilation damper
// across the same R/I/B/F ladder, duty-cycles the workload to use the
// servers as their own heaters (or shed heat), and is supervised by an
// ASHRAE-style allowable envelope plus a dew-point condensation guard that
// override the primary loop whenever it would steer the hardware somewhere
// unsafe.
//
// Everything is integer-tick, RNG-free and allocation-free on the tick
// path, so a controlled experiment remains byte-identical across runs at a
// fixed seed and keeps internal/core's zero-allocation hot-path budget.
package control

import (
	"fmt"
	"time"

	"frostlab/internal/chaos"
	"frostlab/internal/units"
)

// Mode selects the primary ventilation law.
type Mode int

// Primary-loop modes.
const (
	// ModePID regulates the damper with a PID loop on intake temperature.
	ModePID Mode = iota
	// ModeHysteresis is the bang-bang baseline: damper fully open above the
	// deadband, fully closed below it.
	ModeHysteresis
)

func (m Mode) String() string {
	switch m {
	case ModePID:
		return "pid"
	case ModeHysteresis:
		return "hysteresis"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterises a Controller. DefaultConfig is tuned for the
// reference tent.
type Config struct {
	// Mode selects the primary law; Setpoint is the intake temperature it
	// regulates to.
	Mode     Mode
	Setpoint units.Celsius

	// Every is the control period. The loop is scheduled by the caller;
	// the value is carried here so sweeps can treat it as an axis.
	Every time.Duration

	// Fallback maps a simulation time to the open-loop ladder position the
	// supervisor commands while the actuator is suspect. Nil holds the
	// current position.
	Fallback func(now time.Time) float64
}

// The reference controller tuning. The supervisor defends
// units.FrostAllowable, the frost-extended allowable box.
const (
	// deadband is the hysteresis half-width, °C (also used for the
	// in-band statistic in PID mode).
	deadband units.Celsius = 1.5

	// kp, ki and kd are the PID gains (damper fraction per °C).
	kp = 0.12
	ki = 0.004
	kd = 0.02

	// slew is the damper's maximum travel (fraction of full range) per
	// control tick.
	slew = 0.05

	// minDewMargin is the condensation guard threshold: when the powered
	// surfaces' dew-point margin falls below it, the guard latches for
	// guardHold ticks and caps the damper at guardPosition, cutting the
	// moist-air intake before water actually forms.
	minDewMargin  units.Celsius = 1.5
	guardPosition               = 0.25
	guardHold                   = 6

	// stuckWindow and stuckTolerance detect a failed actuator: when the
	// measured damper position stays more than stuckTolerance away from
	// the command for stuckWindow consecutive ticks, the supervisor stops
	// chasing the setpoint and falls back to the open-loop calendar ladder
	// (Config.Fallback), so a recovering damper lands on the known-safe
	// schedule instead of a wound-up extreme.
	stuckWindow    = 6
	stuckTolerance = 0.08

	// boostBelow and throttleAbove are the duty-cycling thresholds: intake
	// at or below boostBelow with the damper closed raises the duty level
	// to DutyBoost (servers as heaters); intake at or above throttleAbove
	// with the damper fully open sheds load, escalating to DutyMigrate
	// after migrateAfter consecutive hot ticks. dutyHold is the duty
	// cycler's minimum hold (ticks) between level changes.
	boostBelow    units.Celsius = 4
	throttleAbove units.Celsius = 26
	migrateAfter                = 24
	dutyHold                    = 12
)

// DefaultConfig returns the reference controller: a PID loop holding
// 12 °C intake on a 5-minute tick.
func DefaultConfig() Config {
	return Config{
		Mode:     ModePID,
		Setpoint: 12,
		Every:    5 * time.Minute,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Mode != ModePID && c.Mode != ModeHysteresis {
		return fmt.Errorf("control: unknown mode %v", c.Mode)
	}
	if !c.Setpoint.Valid() {
		return fmt.Errorf("control: setpoint %v: %w", c.Setpoint, units.ErrOutOfRange)
	}
	if c.Every <= 0 {
		return fmt.Errorf("control: period %v must be positive", c.Every)
	}
	return nil
}

// Inputs is one control tick's sensor snapshot, assembled by the caller.
type Inputs struct {
	Now time.Time
	// Inside and InsideRH are the tent's intake air state (the process
	// variable); Outside and OutsideRH the ambient the damper admits.
	Inside   units.Celsius
	InsideRH units.RelHumidity
	Outside  units.Celsius
	// Surface is the coldest powered surface exposed to intake air (case
	// air of the coolest host), which the condensation guard defends.
	Surface units.Celsius
	// Fault is this tick's injected actuator fault (zero when healthy).
	Fault chaos.ActuatorFault
}

// Output is what the controller decided for one tick.
type Output struct {
	// Command is the damper position the supervised loop commanded;
	// Damper is the position the actuator actually reached.
	Command float64
	Damper  float64
	// Duty is the duty level in force after the minimum-hold policy.
	Duty DutyLevel
	// Guard reports an active dew-point guard, Envelope an envelope
	// override, Fallback the stuck-damper open-loop fallback.
	Guard    bool
	Envelope bool
	Fallback bool
}

// Stats accumulates a run's control-plane accounting.
type Stats struct {
	// Ticks is the number of control ticks executed; InBand how many of
	// them found the intake within the deadband of the setpoint.
	Ticks  int
	InBand int
	// GuardTrips counts guard onsets (a latch held over several ticks is
	// one trip); GuardTicks the total ticks with the guard active.
	GuardTrips int
	GuardTicks int
	// EnvelopeTicks counts ticks the envelope override clamped the
	// command; FallbackTicks the ticks spent on the open-loop fallback.
	EnvelopeTicks int
	FallbackTicks int
	// StuckTicks counts ticks the damper was observed not tracking its
	// command (whether or not the fallback had engaged yet).
	StuckTicks int
	// DutyTicks counts ticks per duty level; DutyChanges level switches.
	DutyTicks   [NumDutyLevels]int
	DutyChanges int
}

// Trace is an optional fixed-capacity recording of the loop's trajectory,
// preallocated so recording does not allocate on the tick path.
type Trace struct {
	T        []time.Time
	Setpoint []float64
	PV       []float64
	Damper   []float64
	Duty     []DutyLevel
	Guard    []bool
}

// Controller closes the free-cooling loop. It is not safe for concurrent
// use; the simulation steps it from a single scheduler goroutine.
type Controller struct {
	cfg    Config
	pid    PID
	bang   Hysteresis
	damper *Damper
	duty   *DutyCycler

	guardLeft   int
	mismatch    int
	matched     int
	fallback    bool
	throttleRun int

	stats Stats
	trace *Trace
}

// New validates the configuration and builds a controller with the damper
// at position 0 (the unmodified winter tent).
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	damper, err := NewDamper(slew)
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg: cfg,
		pid: PID{Kp: kp, Ki: ki, Kd: kd, Min: 0, Max: 1},
		bang: Hysteresis{
			Deadband: float64(deadband), Low: 0, High: 1,
		},
		damper: damper,
		duty:   NewDutyCycler(dutyHold),
	}, nil
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Damper returns the actuator's current measured position.
func (c *Controller) Damper() float64 { return c.damper.Actual() }

// Stats returns the accumulated control statistics.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.DutyChanges = c.duty.Changes()
	return s
}

// EnableTrace preallocates a trajectory recording for up to n ticks.
// Recording stops (without allocating) once the capacity is exhausted.
func (c *Controller) EnableTrace(n int) *Trace {
	c.trace = &Trace{
		T:        make([]time.Time, 0, n),
		Setpoint: make([]float64, 0, n),
		PV:       make([]float64, 0, n),
		Damper:   make([]float64, 0, n),
		Duty:     make([]DutyLevel, 0, n),
		Guard:    make([]bool, 0, n),
	}
	return c.trace
}

// Step runs one control tick: primary law, supervision, actuation, duty
// cycling, accounting.
func (c *Controller) Step(in Inputs) Output {
	c.stats.Ticks++
	e := float64(in.Inside - c.cfg.Setpoint)
	if e <= float64(deadband) && e >= -float64(deadband) {
		c.stats.InBand++
	}

	// Supervision conditions are evaluated before the primary law so the
	// PID integrator can be frozen while an override owns the actuator.
	guard := c.guardActive(in)
	overridden := guard || c.fallback

	var u float64
	switch c.cfg.Mode {
	case ModeHysteresis:
		u = c.bang.Update(e)
	default:
		if overridden {
			c.pid.Observe(e)
			u = c.damper.Actual()
		} else {
			u = c.pid.Update(e)
		}
	}

	out := Output{Guard: guard}

	// Envelope override: intake outside the allowable band forces the
	// damper to the closing (or opening) extreme regardless of the law.
	switch {
	case in.Inside < units.FrostAllowable.TempLow:
		u = 0
		out.Envelope = true
	case in.Inside > units.FrostAllowable.TempHigh:
		u = 1
		out.Envelope = true
	}
	if out.Envelope {
		c.stats.EnvelopeTicks++
	}
	if guard && u > guardPosition {
		u = guardPosition
	}
	if c.fallback {
		if c.cfg.Fallback != nil {
			u = clamp01(c.cfg.Fallback(in.Now))
		} else {
			u = c.damper.Actual()
		}
		out.Fallback = true
		c.stats.FallbackTicks++
	}

	out.Command = clamp01(u)
	prev := c.damper.Actual()
	out.Damper = c.damper.Step(out.Command, in.Fault)
	c.watchActuator(out.Command, out.Damper, prev, e)

	out.Duty = c.duty.Step(c.wantDuty(in, out.Damper))
	c.stats.DutyTicks[out.Duty]++

	c.record(in, out)
	return out
}

// guardActive evaluates (and latches) the dew-point condensation guard.
func (c *Controller) guardActive(in Inputs) bool {
	margin, err := units.DewPointMargin(in.Inside, in.InsideRH, in.Surface)
	tripped := err == nil && margin < minDewMargin
	if tripped && c.guardLeft == 0 {
		c.stats.GuardTrips++
	}
	if tripped {
		c.guardLeft = guardHold
	}
	if c.guardLeft > 0 {
		c.guardLeft--
		c.stats.GuardTicks++
		return true
	}
	return false
}

// watchActuator runs the stuck-damper detector and manages the open-loop
// fallback state. A stuck tick is one where the command is out of tolerance
// AND the damper failed to travel toward it: a healthy mechanism slewing
// toward a distant command is behind, not stuck, and a lagging one still
// moves at half slew. Only a frozen actuator trips the detector.
func (c *Controller) watchActuator(cmd, actual, prev, e float64) {
	diff := cmd - actual
	if diff < 0 {
		diff = -diff
	}
	moved := actual - prev
	if moved < 0 {
		moved = -moved
	}
	if diff > stuckTolerance && moved < slew/4 {
		c.stats.StuckTicks++
		c.mismatch++
		c.matched = 0
		if !c.fallback && c.mismatch >= stuckWindow {
			c.fallback = true
		}
		return
	}
	c.mismatch = 0
	if c.fallback {
		c.matched++
		if c.matched >= stuckWindow {
			// The actuator tracks again: hand the loop back bumplessly
			// from the position the fallback parked it at.
			c.fallback = false
			c.matched = 0
			c.pid.Bumpless(actual, e)
		}
	}
}

// wantDuty derives the requested duty level from the intake state and the
// damper's actual position (duty cycling only engages once the damper has
// run out of authority in the relevant direction).
func (c *Controller) wantDuty(in Inputs, damper float64) DutyLevel {
	switch {
	case in.Inside <= boostBelow && damper <= slew:
		c.throttleRun = 0
		return DutyBoost
	case in.Inside >= throttleAbove && damper >= 1-slew:
		c.throttleRun++
		if c.throttleRun >= migrateAfter || c.duty.Level() == DutyMigrate {
			return DutyMigrate
		}
		return DutyThrottle
	default:
		c.throttleRun = 0
		return DutyNormal
	}
}

func (c *Controller) record(in Inputs, out Output) {
	tr := c.trace
	if tr == nil || len(tr.T) == cap(tr.T) {
		return
	}
	tr.T = append(tr.T, in.Now)
	tr.Setpoint = append(tr.Setpoint, float64(c.cfg.Setpoint))
	tr.PV = append(tr.PV, float64(in.Inside))
	tr.Damper = append(tr.Damper, out.Damper)
	tr.Duty = append(tr.Duty, out.Duty)
	tr.Guard = append(tr.Guard, out.Guard)
}
