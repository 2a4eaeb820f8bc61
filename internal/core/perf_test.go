package core

import (
	"bytes"
	"testing"
	"time"

	"frostlab/internal/telemetry"
)

// TestFailureTickAllocs is the hot-path allocation regression test for the
// physics tick: with cached thermal profiles, precomputed disk IDs, a
// per-tick timestamp render, and reusable per-host line buffers, one
// failureTick host iteration averages well under one allocation (the
// residue is amortized log/timeseries growth; the pre-PR code spent four to
// five allocations per host on formatting alone).
//
// The instrumented subtest re-runs the same measurement with a metrics
// registry and a span tracer attached: the telemetry counters are
// uncontended atomic adds and the tracer writes into a preallocated
// ring, so instrumentation must not move the allocation budget.
func TestFailureTickAllocs(t *testing.T) {
	t.Run("bare", func(t *testing.T) { testFailureTickAllocs(t, false) })
	t.Run("instrumented", func(t *testing.T) { testFailureTickAllocs(t, true) })
}

func testFailureTickAllocs(t *testing.T, instrumented bool) {
	cfg := DefaultConfig("alloc-regression")
	cfg.MonitorEvery = 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if instrumented {
		e.InstrumentTelemetry(telemetry.NewRegistry())
		e.WithTracer(telemetry.NewTracer(1 << 14))
	}
	// Install every host directly; the tick under measurement then walks
	// the full fleet.
	installed := 0
	for _, hs := range e.hosts {
		if err := e.installHost(cfg.Start, hs); err != nil {
			t.Fatal(err)
		}
		installed++
	}
	if installed == 0 {
		t.Fatal("no hosts installed")
	}
	now := cfg.Start
	tick := func() {
		now = now.Add(failureStep)
		if err := e.failureTick(now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 400; i++ { // warm buffers, logs and series past growth spikes
		tick()
	}
	perTick := testing.AllocsPerRun(200, tick)
	perHost := perTick / float64(installed)
	if perHost >= 1 {
		t.Errorf("failureTick allocates %.2f objs per host iteration (%.1f per tick), want < 1",
			perHost, perTick)
	}
	t.Logf("failureTick: %.2f allocs/tick over %d hosts = %.3f per host iteration",
		perTick, installed, perHost)
}

// TestSerializedResultsUnchangedByCaches runs the same 4-day configuration
// twice from scratch and asserts the serialized results are byte-identical:
// the scheduler free list, cached tent power, thermal profiles, weather
// memo and reused line buffers hold no state that can leak between or
// within runs and perturb output.
func TestSerializedResultsUnchangedByCaches(t *testing.T) {
	cfg := DefaultConfig(ReferenceSeed)
	cfg.End = cfg.Start.AddDate(0, 0, 4)
	run := func() []byte {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveResults(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		i := 0
		for i < len(first) && i < len(second) && first[i] == second[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		clamp := func(b []byte) []byte {
			if hi > len(b) {
				return b[lo:]
			}
			return b[lo:hi]
		}
		t.Fatalf("double run diverged at byte %d:\n first: …%s…\nsecond: …%s…",
			i, clamp(first), clamp(second))
	}
	if len(first) == 0 {
		t.Fatal("serialized results empty")
	}
}

// TestTentPowerCacheMatchesRecompute cross-checks the running tent power
// sum against a from-scratch recomputation at several points of a short
// run, including after failure/repair transitions have occurred.
func TestTentPowerCacheMatchesRecompute(t *testing.T) {
	cfg := DefaultConfig(ReferenceSeed)
	cfg.MonitorEvery = 0
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when time.Time) {
		cached := e.tentPower()
		e.recomputeTentPower()
		if e.tentPower() != cached {
			t.Fatalf("at %s: cached tent power %v != recomputed %v", when, cached, e.tentPower())
		}
	}
	check(cfg.Start)
	for _, hs := range e.hosts {
		if err := e.installHost(cfg.Start, hs); err != nil {
			t.Fatal(err)
		}
		check(cfg.Start)
	}
	// Knock hosts through the transient → repair-or-relocate machinery and
	// re-verify after each state change.
	hs := e.hosts[0]
	e.handleTransient(cfg.Start, hs)
	check(cfg.Start)
	e.handleDiskFailure(cfg.Start, e.hosts[1], 0)
	check(cfg.Start)
	// Run past the repair delay so the queued repair/relocation callbacks
	// fire (the workload tasks re-push forever, so bound by time, not by
	// queue exhaustion).
	e.sched.RunUntil(cfg.Start.Add(repairDelay + time.Hour))
	check(e.sched.Now())
}
