package core

import (
	"time"

	"frostlab/internal/simkernel"
	"frostlab/internal/telemetry"
)

// expMetrics is the experiment's always-on tick accounting: plain
// atomic counters embedded by value, incremented inline on the
// simulation hot paths (a single uncontended atomic add, so the
// zero-allocations-per-tick property of the physics loop is preserved —
// see TestFailureTickAllocs). InstrumentTelemetry exposes them on a
// registry as scrape-time counter views.
type expMetrics struct {
	weatherTicks   telemetry.Counter // envStep physics ticks
	failureTicks   telemetry.Counter // failure-sampling ticks
	workloadCycles telemetry.Counter // §3.5 workload cycles across the fleet
	badHashes      telemetry.Counter // cycles that produced a wrong md5sum
	monitorRounds  telemetry.Counter // in-process collection rounds
	hostCollects   telemetry.Counter // host-rounds that produced data
	hostMisses     telemetry.Counter // host-rounds lost to offline hosts
	controlTicks   telemetry.Counter // closed-loop control ticks
}

// WithTracer attaches a span tracer to the experiment and returns it.
// All emitted events carry *simulated* timestamps, so the exported
// Chrome trace shows the Feb–Mar experiment timeline: install instants,
// outage spans between a transient failure and its repair, chip-glitch
// forensics, monitoring rounds, and tent-power / coverage counter
// tracks. Attach before Run; a nil-tracer experiment skips all trace
// work.
func (e *Experiment) WithTracer(tr *telemetry.Tracer) *Experiment {
	e.tracer = tr
	if tr != nil {
		tr.SetThreadName(0, "experiment")
		for _, hs := range e.hosts {
			tr.SetThreadName(hs.tid, "host "+hs.host.ID)
		}
	}
	return e
}

// Tracer returns the attached tracer, or nil.
func (e *Experiment) Tracer() *telemetry.Tracer { return e.tracer }

// traceEvent mirrors one experiment-log event into the tracer as an
// instant on the subject host's track. Event kinds are typed string
// constants, so the conversion allocates nothing.
func (e *Experiment) traceEvent(at time.Time, kind EventKind, subject string) {
	if e.tracer == nil {
		return
	}
	tid := 0
	if i, ok := e.byID[subject]; ok {
		tid = e.hosts[i].tid
	}
	e.tracer.Instant(string(kind), "event", tid, at)
}

// InstrumentTelemetry registers the experiment's metrics on reg:
// scheduler counters (via simkernel.Instrument), the embedded tick
// counters, and gauges over live experiment state (tent power, online
// hosts, monitoring coverage). Like the scheduler itself, these views
// are meant to be scraped from the simulation goroutine or after the
// run; live network daemons maintain their own atomic planes.
func (e *Experiment) InstrumentTelemetry(reg *telemetry.Registry) {
	simkernel.Instrument(reg, e.sched, nil)

	counter := func(name, help string, c *telemetry.Counter) {
		reg.CounterFunc(name, help, func() float64 { return float64(c.Value()) })
	}
	counter("frostlab_weather_ticks_total",
		"Environment physics steps executed (weather sampled, tent stepped).", &e.met.weatherTicks)
	counter("frostlab_failure_ticks_total",
		"Failure-sampling ticks executed across the fleet.", &e.met.failureTicks)
	counter("frostlab_workload_cycles_total",
		"Synthetic tar+compress+md5 workload cycles run fleet-wide (§3.5).", &e.met.workloadCycles)
	counter("frostlab_workload_bad_hash_total",
		"Workload cycles whose md5sum did not match the reference (§4.2.2).", &e.met.badHashes)
	reg.CounterFunc("frostlab_workload_install_wait_seconds_total",
		"Wall time host installs spent in NewRunner on source trees another goroutine claimed.",
		func() float64 { return e.packs.InstallWait().Seconds() })
	counter("frostlab_monitor_rounds_total",
		"In-process monitoring rounds completed.", &e.met.monitorRounds)
	counter("frostlab_monitor_host_collections_total",
		"Host-rounds that mirrored data.", &e.met.hostCollects)
	counter("frostlab_monitor_host_misses_total",
		"Host-rounds lost to offline hosts (the §4.2.1 gaps).", &e.met.hostMisses)

	reg.GaugeFunc("frostlab_tent_power_watts",
		"Combined draw of online tent hosts at the configured duty cycle.",
		func() float64 { return float64(e.tentPower()) })
	reg.GaugeFunc("frostlab_hosts_online",
		"Installed hosts currently online.",
		func() float64 {
			n := 0
			for _, hs := range e.hosts {
				if hs.installed && hs.online {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("frostlab_monitor_coverage_ratio",
		"Fleet-wide fraction of host-rounds that produced data.",
		func() float64 { return e.gaps.Coverage() })

	counter("frostlab_control_ticks_total",
		"Closed-loop control ticks executed (0 in open-loop runs).", &e.met.controlTicks)
	if e.ctl != nil {
		reg.GaugeFunc("frostlab_control_damper_position",
			"Ventilation damper position across the R/I/B/F ladder (0 closed, 1 open).",
			func() float64 { return e.ctl.ctl.Damper() })
		reg.GaugeFunc("frostlab_control_duty_level",
			"Duty-cycling level in force (0 normal, 1 boost, 2 throttle, 3 migrate).",
			func() float64 { return float64(e.ctl.level) })
		reg.CounterFunc("frostlab_control_guard_trips_total",
			"Dew-point condensation guard onsets.",
			func() float64 { return float64(e.ctl.ctl.Stats().GuardTrips) })
		reg.CounterFunc("frostlab_control_fallback_ticks_total",
			"Control ticks spent on the stuck-damper open-loop fallback.",
			func() float64 { return float64(e.ctl.ctl.Stats().FallbackTicks) })
		reg.CounterFunc("frostlab_control_migrated_cycles_total",
			"Tent workload cycles absorbed by basement twins under DutyMigrate.",
			func() float64 { return float64(e.ctl.migratedCycles) })
	}
}
