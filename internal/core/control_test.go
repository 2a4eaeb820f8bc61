package core

import (
	"bytes"
	"strings"
	"testing"

	"frostlab/internal/chaos"
	"frostlab/internal/control"
	"frostlab/internal/telemetry"
	"frostlab/internal/units"
)

// TestControlTickAllocs gates the closed-loop stage at zero allocations per
// control tick: sensing (tent air, weather memo, coldest case-air scan),
// the PID/supervisor step, the damper model, the duty min-hold, and the
// preallocated trace append must all run allocation-free once warm. Duty
// transitions and fallback events log (and allocate) — those are rare edges,
// and the steady state measured here never crosses one.
//
// The instrumented subtest re-runs with a metrics registry and a span
// tracer attached, as in TestFailureTickAllocs: the control counters are
// atomic adds and the damper-position counter track writes into the
// tracer's preallocated ring, so the budget must stay at zero.
func TestControlTickAllocs(t *testing.T) {
	t.Run("bare", func(t *testing.T) { testControlTickAllocs(t, false) })
	t.Run("instrumented", func(t *testing.T) { testControlTickAllocs(t, true) })
}

func testControlTickAllocs(t *testing.T, instrumented bool) {
	cfg := DefaultConfig("control-alloc-regression")
	cfg.MonitorEvery = 0
	cc := control.DefaultConfig()
	cfg.Control = &cc
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if instrumented {
		e.InstrumentTelemetry(telemetry.NewRegistry())
		e.WithTracer(telemetry.NewTracer(1 << 14))
	}
	for _, hs := range e.hosts {
		if err := e.installHost(cfg.Start, hs); err != nil {
			t.Fatal(err)
		}
	}
	now := cfg.Start
	tick := func() {
		now = now.Add(cc.Every)
		e.controlTick(now)
	}
	// Warm until the loop is in steady state: the damper has slewed to its
	// saturated command, the duty level has settled, and the integrator has
	// stopped moving (conditional integration halts at the clamp).
	for i := 0; i < 400; i++ {
		tick()
	}
	perTick := testing.AllocsPerRun(200, tick)
	if perTick != 0 {
		t.Errorf("controlTick allocates %.2f objs per tick, want 0", perTick)
	}
}

// TestControlledRunByteIdentical is the determinism gate for the control
// stage: the same 4-day closed-loop configuration run twice from scratch
// serializes byte-identically, controller state, damper, duty cycler,
// trace and report assembly included.
func TestControlledRunByteIdentical(t *testing.T) {
	cfg := DefaultConfig(ReferenceSeed)
	cfg.End = cfg.Start.AddDate(0, 0, 4)
	cc := control.DefaultConfig()
	cfg.Control = &cc
	run := func() []byte {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Control == nil {
			t.Fatal("closed-loop run produced no control report")
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
		t.Fatalf("closed-loop double run diverged at byte %d:\n first: …%s…\nsecond: …%s…",
			i, clamp(first), clamp(second))
	}
	// The controller must have left fingerprints in the serialized stream.
	if !bytes.Contains(first, []byte(`"control"`)) {
		t.Fatal("serialized closed-loop results carry no control section")
	}
}

// TestStuckDamperFallsBackToLadder scripts a multi-day stuck-damper window
// through the chaos injector and asserts the supervisor detects the
// non-tracking actuator, falls back to the open-loop R/I/B/F ladder, logs
// the transition, and hands control back once the damper heals.
func TestStuckDamperFallsBackToLadder(t *testing.T) {
	cfg := DefaultConfig(ReferenceSeed)
	cfg.MonitorEvery = 0
	cfg.End = cfg.Start.AddDate(0, 0, 14)
	cc := control.DefaultConfig()
	// A deep setpoint makes the loop demand an open damper whenever the
	// envelope floor allows it, so the scripted stuck-at-closed window is
	// guaranteed to produce command/position mismatches.
	cc.Setpoint = -5
	cfg.Control = &cc
	cfg.ActuatorChaos = &chaos.ActuatorSpec{
		Stuck: map[string][]chaos.RoundRange{
			damperActuator: {{From: 2601, To: 3500}},
		},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Control == nil {
		t.Fatal("closed-loop run produced no control report")
	}
	st := r.Control.Stats
	if st.StuckTicks == 0 {
		t.Error("scripted stuck window produced no stuck-mismatch ticks")
	}
	if st.FallbackTicks == 0 {
		t.Error("supervisor never engaged the open-loop ladder fallback")
	}
	var engaged, resumed int
	last := ""
	for _, ev := range r.Events {
		if ev.Kind != EventControlFallback {
			continue
		}
		switch {
		case strings.Contains(ev.Detail, "fallback engaged"):
			engaged++
			last = "engaged"
		case strings.Contains(ev.Detail, "closed loop resumed"):
			resumed++
			last = "resumed"
		default:
			t.Errorf("unrecognised fallback event detail %q", ev.Detail)
		}
	}
	if engaged == 0 {
		t.Error("no fallback-engaged event logged")
	}
	if resumed == 0 {
		t.Error("no closed-loop-resumed event logged")
	}
	if last != "resumed" {
		t.Errorf("run ended with fallback event %q, want the loop handed back after the window", last)
	}
	// A healthy run of the same configuration must never fall back.
	cfg.ActuatorChaos = nil
	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s := r2.Control.Stats; s.FallbackTicks != 0 || s.StuckTicks != 0 {
		t.Errorf("healthy run reports fallback %d / stuck %d ticks, want 0/0",
			s.FallbackTicks, s.StuckTicks)
	}
}

// TestControlledRunHoldsEnvelopeLonger is the E14 acceptance check at unit
// scale: over the same 14-day winter window, the closed loop keeps the
// intake inside the allowable envelope a strictly higher fraction of
// samples than the open-loop calendar. Envelope residency is measured
// identically for both arms, post hoc from the logger series.
func TestControlledRunHoldsEnvelopeLonger(t *testing.T) {
	if testing.Short() {
		t.Skip("two 14-day runs")
	}
	base := DefaultConfig(ReferenceSeed)
	base.MonitorEvery = 0
	base.End = base.Start.AddDate(0, 0, 14)
	base.LascarArrival = base.Start // full-window inside series for both arms
	base.ReadoutEvery = 0
	cc := control.DefaultConfig()

	frac := func(cfg Config) float64 {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		total, inside := 0, 0
		rh := r.InsideRH.Points()
		temp := r.InsideTemp.Points()
		n := len(temp)
		if len(rh) < n { // outlier cleaning may drop a sample from one series
			n = len(rh)
		}
		for i := 0; i < n; i++ {
			total++
			if units.FrostAllowable.Contains(units.Celsius(temp[i].Value), units.RelHumidity(rh[i].Value)) {
				inside++
			}
		}
		if total == 0 {
			t.Fatal("no inside samples")
		}
		return float64(inside) / float64(total)
	}

	open := frac(base)
	closedCfg := base
	closedCfg.Control = &cc
	closed := frac(closedCfg)
	if closed <= open {
		t.Errorf("closed-loop envelope residency %.4f not above open-loop %.4f", closed, open)
	}
	t.Logf("14-day envelope residency: open %.4f, closed %.4f", open, closed)
}
