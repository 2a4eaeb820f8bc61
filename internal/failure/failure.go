// Package failure is frostlab's reliability engine. It turns the paper's
// observed failure statistics into generative models:
//
//   - host-level transient system failures (§4.2.1: two on host 15, none in
//     the control group — 5.6 % of hosts, vs Intel's reported 4.46 %);
//   - pre-existing defect populations (vendor B's known-bad series, the
//     whining network switches that failed identically indoors and out);
//   - environmental stress factors (heat, thermal cycling, extreme
//     humidity, condensation) — deliberately calibrated so that plain cold
//     and high RH add little or nothing, which is the paper's headline
//     negative result;
//   - non-ECC memory soft errors at the paper's estimated rate of roughly
//     one corrupted page per 570 million page operations (§4.2.2).
//
// All sampling draws from named simkernel RNG streams, so experiment runs
// are reproducible. Registering a host or a disk returns its handle, which
// holds the subject's streams ("host/<id>", "mem/<id>", "disk/<id>"): the
// per-step draws take the handle and look nothing up by name.
package failure

import (
	"fmt"
	"math"
	"sort"
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/units"
)

// Kind classifies a failure event.
type Kind int

// Failure kinds.
const (
	// Transient: the system crashed or hung but recovers after a reset —
	// both host-15 incidents were initially of this kind.
	Transient Kind = iota
	// Hard: the component is dead and needs replacement.
	Hard
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Hard:
		return "hard"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Component identifies what failed.
type Component string

// Components tracked by the engine.
const (
	System    Component = "system" // whole-host crash/hang, cause unidentified
	Memory    Component = "memory" // silent corruption (soft error)
	NetSwitch Component = "switch"
	DiskDrive Component = "disk"
)

// Event is one logged failure.
type Event struct {
	At        time.Time
	SubjectID string // host or switch ID
	Component Component
	Kind      Kind
	Detail    string
}

// Stress is the environmental input to the hazard model for one host and
// one step.
type Stress struct {
	// Ambient is the air temperature around the machine.
	Ambient units.Celsius
	// RH is the ambient relative humidity.
	RH units.RelHumidity
	// CaseAir is the air temperature inside the case.
	CaseAir units.Celsius
	// TempRatePerHour is |d(ambient)/dt| in °C/h — thermal cycling.
	TempRatePerHour float64
	// Condensing reports whether condensation is predicted on the
	// equipment surfaces (see units.CondensationRisk).
	Condensing bool
}

// The reliability calibration of the reference experiment: these values
// reproduce the paper's statistics in expectation.
const (
	// BaseTransientPerHour is the healthy-host transient failure hazard:
	// ≈ 0.1 expected events per 10k host-hours.
	BaseTransientPerHour = 1.2e-5
	// WeakTransientPerHour is the hazard of a "weak" individual from a
	// defective series: a weak unit fails about weekly-to-fortnightly.
	WeakTransientPerHour = 3.5e-3
	// weakFractionDefective is the probability that a unit from a
	// known-defective series (vendor B) is weak.
	weakFractionDefective = 0.35
	// weakFractionHealthy is the same lottery for ordinary units.
	weakFractionHealthy = 0.008

	// hotCaseThreshold and hotCasePerDegree add hazard when case air runs
	// hot — vendor B's actual defect mechanism (bad airflow).
	hotCaseThreshold units.Celsius = 45
	hotCasePerDegree               = 0.08
	// cyclingPerDegreePerHour adds hazard per °C/h of ambient swing.
	cyclingPerDegreePerHour = 0.01
	// extremeRHThreshold and extremeRHFactor add (mild) hazard above the
	// threshold. The paper found RH of 80–90 % not a certified failure
	// cause, so the factor is small.
	extremeRHThreshold units.RelHumidity = 92
	extremeRHFactor                      = 1.1
	// condensationFactor multiplies hazard while condensing. Condensation
	// is the one humidity mechanism §5 takes seriously.
	condensationFactor = 25

	// whinySwitchMTBF is the mean life of the defective switches; §4.2.1:
	// "both of the switches encountered a failure after a week or so".
	whinySwitchMTBF = 170 * time.Hour
	// healthySwitchMTBF is the mean life of a sound switch.
	healthySwitchMTBF = 10 * 365 * 24 * time.Hour

	// pageFailureRate is the per-page-operation probability of a memory
	// soft error on non-ECC hardware; §4.2.2 estimates "around one in 570
	// million".
	pageFailureRate = 1.0 / 570e6
)

// WeakFraction returns the weak-unit lottery probability for a unit that
// is (or is not) from a known-defective series.
func WeakFraction(knownDefective bool) float64 {
	if knownDefective {
		return weakFractionDefective
	}
	return weakFractionHealthy
}

// StressMultiplier returns the environmental hazard multiplier for the
// given stress. The transient hazard is the weak-or-base rate times this
// factor; exposing it lets the sharded scale engine compute one multiplier
// per tent-tick and share it across every host under that envelope.
func StressMultiplier(s Stress) float64 {
	mult := 1.0
	if s.CaseAir > hotCaseThreshold {
		mult += hotCasePerDegree * float64(s.CaseAir-hotCaseThreshold)
	}
	mult += cyclingPerDegreePerHour * s.TempRatePerHour
	if s.RH > extremeRHThreshold {
		mult *= extremeRHFactor
	}
	if s.Condensing {
		mult *= condensationFactor
	}
	return mult
}

// PageCorruptionProb returns the probability that one workload cycle
// touching the given number of pages on non-ECC memory suffers at least
// one silent corruption.
func PageCorruptionProb(pages int64) float64 {
	if pages <= 0 {
		return 0
	}
	return 1 - powOneMinus(pageFailureRate, pages)
}

// Host is a registered host's handle: its weak-unit lottery outcome and
// its transient-failure and memory-corruption streams.
type Host struct {
	id   string
	weak bool
	sys  *simkernel.Stream // "host/<id>"
	mem  *simkernel.Stream // "mem/<id>"
}

// Engine samples failures. Create with NewEngine; register each subject
// and step it through the returned handle.
type Engine struct {
	rng *simkernel.RNG
	// hosts makes a repeated RegisterHost return the first handle; no
	// step consults it.
	hosts map[string]*Host
	log   []Event
	// corruptPages and corruptProb memoise PageCorruptionProb for the page
	// count CycleCorrupted last saw: every cycle of a run touches the same
	// number of pages.
	corruptPages int64
	corruptProb  float64
}

// NewEngine returns an engine drawing from rng.
func NewEngine(rng *simkernel.RNG) *Engine {
	return &Engine{rng: rng, hosts: make(map[string]*Host)}
}

// RegisterHost runs the weak-unit lottery for a host and returns its
// handle. knownDefective marks units from vendor B's bad series.
// Registering twice returns the first handle and keeps the first draw.
func (e *Engine) RegisterHost(hostID string, knownDefective bool) *Host {
	if h, done := e.hosts[hostID]; done {
		return h
	}
	h := &Host{
		id:   hostID,
		weak: e.rng.Stream("weak/" + hostID).Bernoulli(WeakFraction(knownDefective)),
		sys:  e.rng.Stream("host/" + hostID),
		mem:  e.rng.Stream("mem/" + hostID),
	}
	e.hosts[hostID] = h
	return h
}

// Weak reports the lottery outcome for a registered host.
func (e *Engine) Weak(hostID string) bool {
	r, ok := e.hosts[hostID]
	return ok && r.weak
}

// hazardPerHour computes a host's current transient hazard.
func (e *Engine) hazardPerHour(host *Host, s Stress) float64 {
	h := BaseTransientPerHour
	if host.weak {
		h = WeakTransientPerHour
	}
	return h * StressMultiplier(s)
}

// StepHost advances one host by dt under the given stress and returns the
// transient system failure event, if one occurred. The caller decides what
// a failure does (crash, reset, relocation); the engine only samples and
// logs it.
func (e *Engine) StepHost(now time.Time, dt time.Duration, host *Host, s Stress) (*Event, error) {
	if host == nil {
		return nil, fmt.Errorf("failure: step of an unregistered host")
	}
	if dt <= 0 {
		return nil, fmt.Errorf("failure: non-positive step %v", dt)
	}
	h := e.hazardPerHour(host, s)
	pFail := 1 - expNeg(h*dt.Hours())
	if !host.sys.Bernoulli(pFail) {
		return nil, nil
	}
	ev := Event{
		At:        now,
		SubjectID: host.id,
		Component: System,
		Kind:      Transient,
		Detail:    fmt.Sprintf("system failure (hazard %.2e/h, ambient %v, case %v)", h, s.Ambient, s.CaseAir),
	}
	e.log = append(e.log, ev)
	return &ev, nil
}

// RegisterSwitch draws the lifetime of a network switch. Whining units use
// the short defective MTBF regardless of where they run — §4.2.1's
// conclusion that "the problem is inherent in these individual switches".
// It returns the switch's time to failure.
func (e *Engine) RegisterSwitch(switchID string, whining bool) time.Duration {
	mtbf := healthySwitchMTBF
	shape := 1.0
	if whining {
		mtbf = whinySwitchMTBF
		// Wear-out shape: the defect progresses, so failures cluster
		// around the MTBF rather than being memoryless.
		shape = 2.5
	}
	hours := e.rng.Stream("switch/"+switchID).Weibull(shape, mtbf.Hours())
	return time.Duration(hours * float64(time.Hour))
}

// LogSwitchFailure records a switch death at the given instant.
func (e *Engine) LogSwitchFailure(now time.Time, switchID string) Event {
	ev := Event{At: now, SubjectID: switchID, Component: NetSwitch, Kind: Hard,
		Detail: "switch failure (defect inherent to the individual unit)"}
	e.log = append(e.log, ev)
	return ev
}

// CycleCorrupted samples whether one workload cycle of a registered host
// that touches the given number of memory pages suffers a silent
// corruption. ECC machines never corrupt (single-bit errors are
// corrected); on non-ECC machines each page operation fails independently
// with pageFailureRate.
func (e *Engine) CycleCorrupted(host *Host, pages int64, ecc bool) bool {
	if ecc || pages <= 0 {
		return false
	}
	if pages != e.corruptPages {
		e.corruptPages, e.corruptProb = pages, PageCorruptionProb(pages)
	}
	return host.mem.Bernoulli(e.corruptProb)
}

// LogMemoryCorruption records a bad-hash incident.
func (e *Engine) LogMemoryCorruption(now time.Time, hostID string, detail string) Event {
	ev := Event{At: now, SubjectID: hostID, Component: Memory, Kind: Transient, Detail: detail}
	e.log = append(e.log, ev)
	return ev
}

// Log returns all recorded events in time order.
func (e *Engine) Log() []Event {
	out := make([]Event, len(e.log))
	copy(out, e.log)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// expNeg computes exp(-x); x >= 0.
func expNeg(x float64) float64 { return math.Exp(-x) }

// powOneMinus computes (1-p)^n stably for tiny p and large n via
// exp(n*log1p(-p)).
func powOneMinus(p float64, n int64) float64 {
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	return math.Exp(float64(n) * math.Log1p(-p))
}
