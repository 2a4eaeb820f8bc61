package failure

import (
	"fmt"
	"math"
	"testing"
	"time"

	"frostlab/internal/simkernel"
)

var t0 = time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)

func newEngine(t *testing.T, seed string) *Engine {
	t.Helper()
	return NewEngine(simkernel.NewRNG(seed))
}

// eventsFor returns the logged events for one subject.
func eventsFor(e *Engine, subjectID string) []Event {
	var out []Event
	for _, ev := range e.Log() {
		if ev.SubjectID == subjectID {
			out = append(out, ev)
		}
	}
	return out
}

var benign = Stress{Ambient: 21, RH: 32, CaseAir: 33}

// TestParamsValidation holds the reliability calibration to the
// invariants the engine relies on: a weak unit is at least as fragile as
// a sound one, the lottery fractions and the page failure rate are
// probabilities, and switch lifetimes are positive.
func TestParamsValidation(t *testing.T) {
	if BaseTransientPerHour < 0 || WeakTransientPerHour < BaseTransientPerHour {
		t.Errorf("transient hazards inconsistent: base %v, weak %v",
			BaseTransientPerHour, WeakTransientPerHour)
	}
	for _, f := range []float64{weakFractionDefective, weakFractionHealthy, pageFailureRate} {
		if f < 0 || f > 1 {
			t.Errorf("probability %v out of [0,1]", f)
		}
	}
	if whinySwitchMTBF <= 0 || healthySwitchMTBF <= 0 {
		t.Error("switch MTBFs must be positive")
	}
}

func TestStepRequiresRegistration(t *testing.T) {
	e := newEngine(t, "reg")
	if _, err := e.StepHost(t0, time.Hour, e.hosts["ghost"], benign); err == nil {
		t.Error("unregistered host accepted")
	}
	h := e.RegisterHost("01", false)
	if _, err := e.StepHost(t0, time.Hour, h, benign); err != nil {
		t.Errorf("registered host rejected: %v", err)
	}
	if _, err := e.StepHost(t0, 0, h, benign); err == nil {
		t.Error("zero step accepted")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	e := newEngine(t, "idem")
	first := e.RegisterHost("01", true)
	was := e.Weak("01")
	for i := 0; i < 10; i++ {
		if e.RegisterHost("01", true) != first {
			t.Fatal("re-registration returned a new handle")
		}
	}
	if e.Weak("01") != was {
		t.Error("re-registration re-drew the lottery")
	}
}

func TestWeakLotteryFractions(t *testing.T) {
	e := newEngine(t, "lottery")
	weakDefective, weakHealthy := 0, 0
	n := 2000
	for i := 0; i < n; i++ {
		dID, hID := fmt.Sprintf("d%d", i), fmt.Sprintf("h%d", i)
		e.RegisterHost(dID, true)
		e.RegisterHost(hID, false)
		if e.Weak(dID) {
			weakDefective++
		}
		if e.Weak(hID) {
			weakHealthy++
		}
	}
	if f := float64(weakDefective) / float64(n); f < weakFractionDefective-0.05 || f > weakFractionDefective+0.05 {
		t.Errorf("defective weak fraction %.3f, want ≈ %v", f, weakFractionDefective)
	}
	if f := float64(weakHealthy) / float64(n); f > weakFractionHealthy*2+0.01 {
		t.Errorf("healthy weak fraction %.3f, want ≈ %v", f, weakFractionHealthy)
	}
}

// monthsOfOperation steps a host hourly for the given duration and counts
// failures.
func monthsOfOperation(t *testing.T, e *Engine, hostID string, d time.Duration, s Stress) int {
	t.Helper()
	n := 0
	for at, step := t0, time.Hour; at.Before(t0.Add(d)); at = at.Add(step) {
		ev, err := e.StepHost(at, step, e.hosts[hostID], s)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			n++
		}
	}
	return n
}

func TestHealthyHostsRarelyFail(t *testing.T) {
	// A benign-condition fleet of 100 strong hosts over 3 months should
	// see close to zero transient failures — the control group's result.
	e := newEngine(t, "healthy-run")
	failures := 0
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("h%d", i)
		e.RegisterHost(id, false)
		if e.Weak(id) {
			continue // exclude lottery losers; tested separately
		}
		failures += monthsOfOperation(t, e, id, 90*24*time.Hour, benign)
	}
	// 100 hosts * 2160h * 1.2e-5/h ≈ 2.6 expected; allow noise.
	if failures > 8 {
		t.Errorf("%d failures across ~100 healthy host-quarters, want a handful at most", failures)
	}
}

func TestWeakHostFailsWithinWeeks(t *testing.T) {
	// A weak unit (host 15) should produce on the order of a couple of
	// failures in a 12-day tent stint, like the paper's Mar 7 and Mar 17.
	e := newEngine(t, "weak-run")
	// Force weakness by registering defective units until one is weak.
	id := ""
	for i := 0; i < 100; i++ {
		cand := fmt.Sprintf("w%d", i)
		e.RegisterHost(cand, true)
		if e.Weak(cand) {
			id = cand
			break
		}
	}
	if id == "" {
		t.Fatal("no weak unit in 100 defective draws")
	}
	total := 0
	runs := 40
	for r := 0; r < runs; r++ {
		er := newEngine(t, fmt.Sprintf("weak-run-%d", r))
		er.RegisterHost(id, true)
		er.hosts[id].weak = true // fix the lottery; we're testing the hazard
		total += monthsOfOperation(t, er, id, 12*24*time.Hour, benign)
	}
	mean := float64(total) / float64(runs)
	// 288h * 3.5e-3/h ≈ 1.0 expected events.
	if mean < 0.4 || mean > 2 {
		t.Errorf("weak host mean failures per 12 days = %.2f, want ≈ 1.0", mean)
	}
}

func TestColdAloneAddsNoHazard(t *testing.T) {
	// The paper's central negative result: sub-zero ambient temperatures
	// are not a certified failure cause. Equal hazard in cold still air
	// and benign conditions.
	e := newEngine(t, "cold")
	e.RegisterHost("01", false)
	cold := Stress{Ambient: -22, RH: 85, CaseAir: -5}
	if hc, hb := e.hazardPerHour(e.hosts["01"], cold), e.hazardPerHour(e.hosts["01"], benign); hc != hb {
		t.Errorf("cold hazard %v != benign hazard %v; cold alone must not matter", hc, hb)
	}
}

func TestHighRHAddsLittle(t *testing.T) {
	e := newEngine(t, "rh")
	e.RegisterHost("01", false)
	humid := benign
	humid.RH = 95
	hb := e.hazardPerHour(e.hosts["01"], benign)
	hh := e.hazardPerHour(e.hosts["01"], humid)
	if hh < hb {
		t.Error("extreme RH reduced hazard")
	}
	if hh > hb*1.3 {
		t.Errorf("extreme RH multiplied hazard by %.2f; paper says it is not a certified cause", hh/hb)
	}
}

func TestCondensationIsSerious(t *testing.T) {
	e := newEngine(t, "cond")
	e.RegisterHost("01", false)
	wet := benign
	wet.Condensing = true
	if h := e.hazardPerHour(e.hosts["01"], wet); h < e.hazardPerHour(e.hosts["01"], benign)*10 {
		t.Error("condensation factor too weak; §5 treats it as the real risk")
	}
}

func TestHotCaseAddsHazard(t *testing.T) {
	// Vendor B's actual defect mechanism: elevated case temperatures.
	e := newEngine(t, "hot")
	e.RegisterHost("01", false)
	hot := benign
	hot.CaseAir = 60
	if e.hazardPerHour(e.hosts["01"], hot) <= e.hazardPerHour(e.hosts["01"], benign) {
		t.Error("hot case did not raise hazard")
	}
}

func TestCyclingAddsHazard(t *testing.T) {
	e := newEngine(t, "cyc")
	e.RegisterHost("01", false)
	swingy := benign
	swingy.TempRatePerHour = 5
	if e.hazardPerHour(e.hosts["01"], swingy) <= e.hazardPerHour(e.hosts["01"], benign) {
		t.Error("thermal cycling did not raise hazard")
	}
}

func TestWhinySwitchLifetime(t *testing.T) {
	// "Both of the switches encountered a failure after a week or so."
	e := newEngine(t, "switches")
	var sum time.Duration
	n := 200
	for i := 0; i < n; i++ {
		sum += e.RegisterSwitch(fmt.Sprintf("sw%d", i), true)
	}
	mean := sum / time.Duration(n)
	// Weibull(k=2.5, λ) has mean ≈ 0.887 λ.
	want := time.Duration(float64(whinySwitchMTBF) * 0.887)
	if mean < want/2 || mean > want*2 {
		t.Errorf("whiny switch mean life %v, want ≈ %v", mean, want)
	}
}

func TestHealthySwitchOutlivesExperiment(t *testing.T) {
	e := newEngine(t, "goodsw")
	short := 0
	for i := 0; i < 100; i++ {
		if e.RegisterSwitch(fmt.Sprintf("sw%d", i), false) < 90*24*time.Hour {
			short++
		}
	}
	// Exponential with 10-year mean: P(<90 days) ≈ 2.4%.
	if short > 10 {
		t.Errorf("%d/100 healthy switches died within the experiment", short)
	}
}

func TestCycleCorruptedRate(t *testing.T) {
	// §4.2.2 calibration: ≈116k pages per cycle (3.2e9 pages / 27627
	// cycles) at 1/570e6 per page ≈ 2e-4 per cycle; over 27627 cycles
	// expect ≈ 5.6 corrupted runs.
	e := newEngine(t, "mem")
	h := e.RegisterHost("01", false)
	pagesPerCycle := int64(3.2e9) / 27627
	bad := 0
	for i := 0; i < 27627; i++ {
		if e.CycleCorrupted(h, pagesPerCycle, false) {
			bad++
		}
	}
	if bad < 1 || bad > 14 {
		t.Errorf("%d corrupted cycles in 27627, want ≈ 5.6 (paper: 5)", bad)
	}
}

// TestCycleCorruptedMemo holds the memoised corruption probability to
// PageCorruptionProb bit for bit, across changes of page count, and the
// draws to the ones the straight-line computation makes.
func TestCycleCorruptedMemo(t *testing.T) {
	e, ref := newEngine(t, "memo"), newEngine(t, "memo")
	h := e.RegisterHost("01", false)
	pagesPerCycle := int64(3.2e9) / 27627
	for i, pages := range []int64{pagesPerCycle, 1, pagesPerCycle, 1e9, 1e9, pagesPerCycle} {
		for j := 0; j < 500; j++ {
			got := e.CycleCorrupted(h, pages, false)
			if want := ref.rng.Stream("mem/01").Bernoulli(PageCorruptionProb(pages)); got != want {
				t.Fatalf("step %d draw %d: %v, straight-line draw %v", i, j, got, want)
			}
		}
		if got, want := math.Float64bits(e.corruptProb), math.Float64bits(PageCorruptionProb(pages)); got != want {
			t.Fatalf("step %d: memoised probability bits %#x, want %#x", i, got, want)
		}
	}
}

func TestECCNeverCorrupts(t *testing.T) {
	e := newEngine(t, "ecc")
	h := e.RegisterHost("c11", false)
	for i := 0; i < 100000; i++ {
		if e.CycleCorrupted(h, 1e9, true) {
			t.Fatal("ECC host corrupted a cycle")
		}
	}
}

func TestCycleCorruptedEdgeCases(t *testing.T) {
	e := newEngine(t, "edge")
	h := e.RegisterHost("01", false)
	if e.CycleCorrupted(h, 0, false) || e.CycleCorrupted(h, -5, false) {
		t.Error("non-positive page count corrupted")
	}
}

func TestEventLogOrderingAndFiltering(t *testing.T) {
	e := newEngine(t, "log")
	e.LogSwitchFailure(t0.Add(2*time.Hour), "sw2")
	e.LogMemoryCorruption(t0.Add(time.Hour), "06", "1 of 396 blocks corrupt")
	e.LogSwitchFailure(t0.Add(3*time.Hour), "sw1")
	log := e.Log()
	if len(log) != 3 {
		t.Fatalf("log length %d", len(log))
	}
	for i := 1; i < len(log); i++ {
		if log[i].At.Before(log[i-1].At) {
			t.Fatal("log not time-ordered")
		}
	}
	if evs := eventsFor(e, "06"); len(evs) != 1 || evs[0].Component != Memory {
		t.Errorf("eventsFor(06) = %v", evs)
	}
	if evs := eventsFor(e, "nobody"); len(evs) != 0 {
		t.Errorf("eventsFor(nobody) = %v", evs)
	}
}

func TestKindString(t *testing.T) {
	if Transient.String() != "transient" || Hard.String() != "hard" {
		t.Error("kind names wrong")
	}
	if Kind(7).String() == "" {
		t.Error("unknown kind unformatted")
	}
}

func TestPowOneMinus(t *testing.T) {
	if got := powOneMinus(0, 100); got != 1 {
		t.Errorf("p=0: %v", got)
	}
	if got := powOneMinus(1, 100); got != 0 {
		t.Errorf("p=1: %v", got)
	}
	// (1 - 1/570e6)^(3.2e9) ≈ exp(-5.614) ≈ 0.00365.
	got := powOneMinus(1/570e6, int64(3.2e9))
	if got < 0.003 || got > 0.0045 {
		t.Errorf("whole-experiment survival %v, want ≈ 0.0037", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Event {
		e := newEngine(t, "det")
		h := e.RegisterHost("15", true)
		h.weak = true
		for at := t0; at.Before(t0.AddDate(0, 1, 0)); at = at.Add(time.Hour) {
			_, _ = e.StepHost(at, time.Hour, h, benign)
		}
		return e.Log()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if !a[i].At.Equal(b[i].At) {
			t.Fatalf("event %d at %v vs %v", i, a[i].At, b[i].At)
		}
	}
}

func BenchmarkStepHost(b *testing.B) {
	e := NewEngine(simkernel.NewRNG("bench"))
	h := e.RegisterHost("01", false)
	for i := 0; i < b.N; i++ {
		_, _ = e.StepHost(t0.Add(time.Duration(i)*time.Minute), time.Minute, h, benign)
	}
}

func BenchmarkCycleCorrupted(b *testing.B) {
	e := NewEngine(simkernel.NewRNG("bench"))
	h := e.RegisterHost("01", false)
	for i := 0; i < b.N; i++ {
		_ = e.CycleCorrupted(h, 116000, false)
	}
}
