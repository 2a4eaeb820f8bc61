package chaos

import (
	"fmt"

	"frostlab/internal/simkernel"
)

// Actuator fault injection: the control plane's counterpart to the
// monitoring-plane connection faults. A real damper motor sticks, ices
// over, or responds sluggishly in the cold; the §5 "automated airflow
// management" the paper asks for is only production-grade if the control
// loop survives its own actuators. Faults are drawn per control tick from
// one cached RNG stream per actuator — the control loop is single-threaded
// and steps actuators in a fixed order, so a sequential stream is exactly
// reproducible and, once seeded, the draw allocates nothing on the tick
// path.

// ActuatorKind enumerates injectable actuator faults.
type ActuatorKind int

// Actuator fault kinds. ActStuck freezes the actuator at its current
// position regardless of commands; ActLag halves the slew rate, modelling
// a cold-stiffened mechanism that still moves but cannot keep up.
const (
	ActNone ActuatorKind = iota
	ActStuck
	ActLag
)

func (k ActuatorKind) String() string {
	switch k {
	case ActNone:
		return "none"
	case ActStuck:
		return "stuck"
	case ActLag:
		return "lag"
	default:
		return fmt.Sprintf("ActuatorKind(%d)", int(k))
	}
}

// ActuatorFault is the fault state of one actuator for one control tick.
type ActuatorFault struct {
	Kind ActuatorKind
	// TicksLeft is how many further ticks the fault persists (informational;
	// the injector already accounts for persistence internally).
	TicksLeft int
}

// ActuatorSpec configures an ActuatorInjector.
type ActuatorSpec struct {
	// Seed roots the fault streams. Same seed + same spec + same tick
	// sequence ⇒ identical fault sequence.
	Seed string

	// PStick and PLag are per-tick onset probabilities of a new fault
	// while the actuator is healthy. Their sum must not exceed 1.
	PStick float64
	PLag   float64
	// StickTicks and LagTicks are how many control ticks a drawn fault
	// lasts (<= 0 selects 1).
	StickTicks int
	LagTicks   int

	// Stuck and Lagged script deterministic fault windows per actuator
	// name, as inclusive 1-based control-tick ranges (RoundRange reused
	// with ticks in place of rounds). Scripted windows take precedence
	// over the probabilistic draw, exactly like the connection injector's
	// Down/Stalled schedules.
	Stuck  map[string][]RoundRange
	Lagged map[string][]RoundRange
}

// Validate checks the spec.
func (s ActuatorSpec) Validate() error {
	if !(s.PStick >= 0 && s.PStick <= 1 && s.PLag >= 0 && s.PLag <= 1) {
		return fmt.Errorf("chaos: actuator probability outside [0,1]: stick %v, lag %v", s.PStick, s.PLag)
	}
	if s.PStick+s.PLag > 1 {
		return fmt.Errorf("chaos: actuator fault probabilities sum to %v > 1", s.PStick+s.PLag)
	}
	if err := validateRanges(s.Stuck, "stuck", "actuator"); err != nil {
		return err
	}
	return validateRanges(s.Lagged, "lag", "actuator")
}

// actState is the persistent fault state of one named actuator.
type actState struct {
	stream *simkernel.Stream
	kind   ActuatorKind
	left   int
}

// ActuatorInjector draws deterministic per-tick actuator faults. It is not
// safe for concurrent use: the control loop is single-threaded by design.
type ActuatorInjector struct {
	spec ActuatorSpec
	rng  *simkernel.RNG
	acts map[string]*actState
}

// NewActuator validates the spec and returns an injector.
func NewActuator(spec ActuatorSpec) (*ActuatorInjector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &ActuatorInjector{
		spec: spec,
		rng:  simkernel.NewRNG(spec.Seed),
		acts: make(map[string]*actState),
	}, nil
}

// Register resolves the actuator's RNG stream handle up front, so a tick
// allocates nothing once the stream's first draw has seeded it. FaultFor
// registers lazily, but a controller that must hold a zero-allocation tick
// budget should Register at setup.
func (in *ActuatorInjector) Register(name string) {
	in.state(name)
}

func (in *ActuatorInjector) state(name string) *actState {
	st, ok := in.acts[name]
	if !ok {
		st = &actState{stream: in.rng.Stream("act/" + name)}
		in.acts[name] = st
	}
	return st
}

// FaultFor draws the actuator's fault state for one control tick (1-based).
// Scripted windows override everything; otherwise an in-progress fault
// persists until its drawn duration expires, and a healthy actuator samples
// a new onset. Ticks must be queried in nondecreasing order per actuator —
// the draw consumes the actuator's sequential stream.
func (in *ActuatorInjector) FaultFor(name string, tick int) ActuatorFault {
	st := in.state(name)
	if inRanges(in.spec.Stuck[name], tick) {
		return ActuatorFault{Kind: ActStuck}
	}
	if inRanges(in.spec.Lagged[name], tick) {
		return ActuatorFault{Kind: ActLag}
	}
	if st.left > 0 {
		st.left--
		return ActuatorFault{Kind: st.kind, TicksLeft: st.left}
	}
	if in.spec.PStick+in.spec.PLag == 0 {
		return ActuatorFault{}
	}
	u := st.stream.Uniform(0, 1)
	switch {
	case u < in.spec.PStick:
		st.kind = ActStuck
		st.left = durTicks(in.spec.StickTicks)
	case u < in.spec.PStick+in.spec.PLag:
		st.kind = ActLag
		st.left = durTicks(in.spec.LagTicks)
	default:
		return ActuatorFault{}
	}
	st.left--
	return ActuatorFault{Kind: st.kind, TicksLeft: st.left}
}

func durTicks(n int) int {
	if n <= 0 {
		return 1
	}
	return n
}
