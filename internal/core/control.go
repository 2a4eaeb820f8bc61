package core

import (
	"fmt"
	"math"
	"time"

	"frostlab/internal/chaos"
	"frostlab/internal/control"
	"frostlab/internal/hardware"
	"frostlab/internal/thermal"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
)

// Closed-loop integration: when Config.Control is set, the experiment runs
// the paper's §5 outlook instead of its §4 history — the R/I/B/F calendar
// is replaced by a ventilation controller stepping the continuous damper,
// duty-cycling the fleet, and guarded by the envelope/dew-point supervisor.
// The stage is strictly additive: with Config.Control nil, no control code
// runs and the simulation is byte-identical to the open-loop reproduction.

// damperActuator names the ventilation damper for actuator fault injection.
const damperActuator = "damper"

// Duty fractions for the non-normal duty levels. Boost turns the servers
// into deliberate heaters (the paper's only heat source is the hardware's
// own dissipation); throttle sheds most of the variable draw; migrated
// tent hosts idle while their basement twins take the boost.
const (
	boostDuty    = 0.9
	throttleDuty = 0.1
)

// ctlState is the experiment's closed-loop plumbing, nil unless enabled.
type ctlState struct {
	ctl   *control.Controller
	inj   *chaos.ActuatorInjector
	trace *control.Trace

	tick         int
	level        control.DutyLevel
	prevFallback bool

	// migratedCycles counts tent workload cycles absorbed by basement
	// twins while DutyMigrate was in force.
	migratedCycles uint64
	// envTicks / envInTicks measure allowable-envelope residency at the
	// control cadence (the E14 headline metric).
	envTicks, envInTicks int
}

// dutyFraction maps a duty level to a host's workload load fraction.
// Basement hosts only ever deviate from the configured duty when their
// tent twin's cycles are migrated onto them.
func dutyFraction(l control.DutyLevel, h *hardware.Host) float64 {
	if h.Location == hardware.Basement {
		if l == control.DutyMigrate && h.TwinID != "" {
			return boostDuty
		}
		return dutyCycle
	}
	switch l {
	case control.DutyBoost:
		return boostDuty
	case control.DutyThrottle:
		return throttleDuty
	case control.DutyMigrate:
		return 0 // idle: the cycles run on the basement twin
	default:
		return dutyCycle
	}
}

// setupControl builds the controller, the optional actuator fault
// injector, and each host's per-duty-level thermal profiles and power
// draws (precomputed so a duty transition is a few pointer-free copies,
// never an allocation).
func (e *Experiment) setupControl() error {
	cc := *e.cfg.Control
	if cc.Fallback == nil {
		cc.Fallback = e.ladderFallback()
	}
	ctl, err := control.New(cc)
	if err != nil {
		return err
	}
	st := &ctlState{ctl: ctl}
	st.trace = ctl.EnableTrace(int(e.cfg.End.Sub(e.cfg.Start)/cc.Every) + 2)
	if e.cfg.ActuatorChaos != nil {
		spec := *e.cfg.ActuatorChaos
		if spec.Seed == "" {
			spec.Seed = e.cfg.Seed + "/act"
		}
		st.inj, err = chaos.NewActuator(spec)
		if err != nil {
			return err
		}
		st.inj.Register(damperActuator)
	}
	for _, hs := range e.hosts {
		for l := 0; l < control.NumDutyLevels; l++ {
			duty := dutyFraction(control.DutyLevel(l), hs.host)
			p, err := thermal.NewProfile(hs.host.Spec.Power(duty),
				hs.host.Spec.CPUPower(duty), hs.host.Spec.Airflow)
			if err != nil {
				return fmt.Errorf("core: host %s duty profile %v: %w", hs.host.ID, control.DutyLevel(l), err)
			}
			hs.profiles[l] = p
			hs.powers[l] = hs.host.Spec.Power(duty)
		}
	}
	e.ctl = st
	return nil
}

// ladderFallback returns the open-loop calendar as a damper position: the
// fraction of the R/I/B/F schedule that would have been applied by now.
// This is what the supervisor commands while the damper is suspect, so a
// recovering actuator lands on the paper's known-safe trajectory.
func (e *Experiment) ladderFallback() func(time.Time) float64 {
	dates := make([]time.Time, 0, 4)
	for _, m := range []thermal.Modification{
		thermal.ReflectiveFoil, thermal.RemoveInnerTent,
		thermal.OpenBottom, thermal.InstallFan,
	} {
		if at, ok := e.cfg.Modifications[m]; ok {
			dates = append(dates, at)
		}
	}
	return func(now time.Time) float64 {
		n := 0
		for _, at := range dates {
			if !at.After(now) {
				n++
			}
		}
		return float64(n) / 4
	}
}

// controlTick runs one closed-loop step: sense, decide, actuate, account.
func (e *Experiment) controlTick(now time.Time) {
	st := e.ctl
	st.tick++
	var fault chaos.ActuatorFault
	if st.inj != nil {
		fault = st.inj.FaultFor(damperActuator, st.tick)
	}
	inT, inRH := e.tent.Air()
	out := e.wx.At(now)
	res := st.ctl.Step(control.Inputs{
		Now:      now,
		Inside:   inT,
		InsideRH: inRH,
		Outside:  out.Temp,
		Surface:  e.coldestSurface(inT),
		Fault:    fault,
	})
	e.tent.SetVentilation(res.Damper)
	if res.Duty != st.level {
		e.applyDutyLevel(now, res.Duty)
	}
	st.envTicks++
	if units.FrostAllowable.Contains(inT, inRH) {
		st.envInTicks++
	}
	if res.Fallback != st.prevFallback {
		st.prevFallback = res.Fallback
		if res.Fallback {
			e.logEvent(now, EventControlFallback, "control",
				"damper not tracking its command; open-loop ladder fallback engaged")
		} else {
			e.logEvent(now, EventControlFallback, "control",
				"damper tracking again; closed loop resumed")
		}
	}
	e.met.controlTicks.Inc()
	if e.tracer != nil {
		e.tracer.Counter("damper_position", now, res.Damper)
	}
}

// coldestSurface returns the case-air temperature of the coolest online
// tent host at the given intake — the surface the condensation guard
// defends. With no powered tent hosts there is nothing for water to form
// on; a surface far above intake is reported so the guard stays quiet.
func (e *Experiment) coldestSurface(intake units.Celsius) units.Celsius {
	coldest := units.Celsius(math.Inf(1))
	for _, hs := range e.hosts {
		if !hs.installed || !hs.online || hs.relocated || hs.host.Location != hardware.Tent {
			continue
		}
		if t := hs.profile.At(intake).CaseAir; t < coldest {
			coldest = t
		}
	}
	if math.IsInf(float64(coldest), 1) {
		return intake + 50
	}
	return coldest
}

// applyDutyLevel switches every installed host onto its precomputed
// profile and draw for the new level, and re-sums the tent feed.
func (e *Experiment) applyDutyLevel(now time.Time, l control.DutyLevel) {
	st := e.ctl
	prev := st.level
	st.level = l
	idx := int(l)
	for _, hs := range e.hosts {
		if !hs.installed || hs.relocated {
			continue
		}
		hs.profile = hs.profiles[idx]
		hs.power = hs.powers[idx]
		if hs.host.Location == hardware.Tent {
			hs.migrated = l == control.DutyMigrate
		}
	}
	e.recomputeTentPower()
	e.logEvent(now, EventDutyChange, "control", fmt.Sprintf("duty %v -> %v", prev, l))
}

// ControlReport summarises a closed-loop run: controller statistics, the
// envelope-residency headline, and the recorded loop trajectory.
type ControlReport struct {
	// Mode and Setpoint identify the law; Envelope the defended box.
	Mode     string
	Setpoint units.Celsius
	Envelope units.AshraeEnvelope

	// Stats is the controller's own accounting (trips, overrides,
	// saturation, duty residency).
	Stats control.Stats

	// MigratedCycles counts workload cycles absorbed by basement twins.
	MigratedCycles uint64

	// EnvelopeTicks and EnvelopeInTicks measure how many control ticks
	// found the intake inside the allowable box.
	EnvelopeTicks   int
	EnvelopeInTicks int

	// Setpoints, PV, Damper and Duty are the loop trajectory at control
	// cadence; GuardTrips are the condensation-guard onset instants.
	Setpoints  *timeseries.Series
	PV         *timeseries.Series
	Damper     *timeseries.Series
	Duty       *timeseries.Series
	GuardTrips []time.Time
}

// EnvelopeFraction is the share of control ticks spent inside the
// allowable envelope.
func (cr *ControlReport) EnvelopeFraction() float64 {
	if cr.EnvelopeTicks == 0 {
		return 0
	}
	return float64(cr.EnvelopeInTicks) / float64(cr.EnvelopeTicks)
}

func (e *Experiment) assembleControlReport() *ControlReport {
	st := e.ctl
	cc := st.ctl.Config()
	cr := &ControlReport{
		Mode:            cc.Mode.String(),
		Setpoint:        cc.Setpoint,
		Envelope:        units.FrostAllowable,
		Stats:           st.ctl.Stats(),
		MigratedCycles:  st.migratedCycles,
		EnvelopeTicks:   st.envTicks,
		EnvelopeInTicks: st.envInTicks,
		Setpoints:       timeseries.New("control_setpoint", "°C"),
		PV:              timeseries.New("control_pv", "°C"),
		Damper:          timeseries.New("control_damper", "open"),
		Duty:            timeseries.New("control_duty", "level"),
	}
	tr := st.trace
	prevGuard := false
	for i, at := range tr.T {
		_ = cr.Setpoints.Append(at, tr.Setpoint[i])
		_ = cr.PV.Append(at, tr.PV[i])
		_ = cr.Damper.Append(at, tr.Damper[i])
		_ = cr.Duty.Append(at, float64(tr.Duty[i]))
		if tr.Guard[i] && !prevGuard {
			cr.GuardTrips = append(cr.GuardTrips, at)
		}
		prevGuard = tr.Guard[i]
	}
	return cr
}
