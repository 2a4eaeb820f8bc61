package simkernel

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2010, time.February, 12, 0, 0, 0, 0, time.UTC)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(t0)
	var got []int
	if _, err := s.After(3*time.Hour, func(time.Time) { got = append(got, 3) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.After(1*time.Hour, func(time.Time) { got = append(got, 1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.After(2*time.Hour, func(time.Time) { got = append(got, 2) }); err != nil {
		t.Fatal(err)
	}
	if err := s.runAll(100); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

func TestSchedulerFIFOAmongEqualTimes(t *testing.T) {
	s := NewScheduler(t0)
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		if _, err := s.At(t0.Add(time.Hour), func(time.Time) { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.runAll(100); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulerClockAdvances(t *testing.T) {
	s := NewScheduler(t0)
	var at time.Time
	if _, err := s.After(90*time.Minute, func(now time.Time) { at = now }); err != nil {
		t.Fatal(err)
	}
	if !s.Step() {
		t.Fatal("Step returned false with pending event")
	}
	want := t0.Add(90 * time.Minute)
	if !at.Equal(want) || !s.Now().Equal(want) {
		t.Errorf("clock %v / callback %v, want %v", s.Now(), at, want)
	}
}

func TestSchedulerRejectsPast(t *testing.T) {
	s := NewScheduler(t0)
	if _, err := s.At(t0.Add(-time.Second), func(time.Time) {}); err == nil {
		t.Error("scheduling in the past should fail")
	}
	if _, err := s.After(-time.Second, func(time.Time) {}); err == nil {
		t.Error("negative After should fail")
	}
}

func TestEventCancel(t *testing.T) {
	s := NewScheduler(t0)
	fired := false
	e, err := s.After(time.Hour, func(time.Time) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	e.Cancel()
	if err := s.runAll(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

// TestCancelTwiceAfterSkip: a canceled event skipped by dispatch is not
// handed out again, so canceling it a second time, as its doc allows,
// cannot cancel a later event.
func TestCancelTwiceAfterSkip(t *testing.T) {
	s := NewScheduler(t0)
	nop := func(time.Time) {}
	e, err := s.After(time.Second, nop)
	if err != nil {
		t.Fatal(err)
	}
	e.Cancel()
	if _, ok := s.NextDue(); ok {
		t.Fatal("canceled event still due")
	}
	fired := false
	if _, err := s.After(time.Second, func(time.Time) { fired = true }); err != nil {
		t.Fatal(err)
	}
	e.Cancel()
	if err := s.runAll(10); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("a second Cancel of a skipped event canceled a later event")
	}
}

func TestRunUntilAdvancesToDeadline(t *testing.T) {
	s := NewScheduler(t0)
	var fired []time.Duration
	if _, err := s.After(time.Hour, func(now time.Time) { fired = append(fired, now.Sub(t0)) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.After(10*time.Hour, func(now time.Time) { fired = append(fired, now.Sub(t0)) }); err != nil {
		t.Fatal(err)
	}
	deadline := t0.Add(5 * time.Hour)
	s.RunUntil(deadline)
	if len(fired) != 1 || fired[0] != time.Hour {
		t.Errorf("fired %v, want only the 1h event", fired)
	}
	if !s.Now().Equal(deadline) {
		t.Errorf("clock %v, want deadline %v", s.Now(), deadline)
	}
	// The 10h event must still be pending and fire later.
	s.RunUntil(t0.Add(20 * time.Hour))
	if len(fired) != 2 {
		t.Errorf("late event lost: fired %v", fired)
	}
}

func TestRunAllCap(t *testing.T) {
	s := NewScheduler(t0)
	var reschedule func(time.Time)
	reschedule = func(time.Time) {
		_, _ = s.After(time.Minute, reschedule)
	}
	if _, err := s.After(time.Minute, reschedule); err != nil {
		t.Fatal(err)
	}
	if err := s.runAll(50); err == nil {
		t.Error("runaway self-rescheduling not caught by cap")
	}
}

func TestPeriodicFiresOnSchedule(t *testing.T) {
	s := NewScheduler(t0)
	var times []time.Duration
	task, err := s.Periodic(t0.Add(time.Minute), 10*time.Minute, nil, func(now time.Time) {
		times = append(times, now.Sub(t0))
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(t0.Add(45 * time.Minute))
	want := []time.Duration{time.Minute, 11 * time.Minute, 21 * time.Minute, 31 * time.Minute, 41 * time.Minute}
	if len(times) != len(want) {
		t.Fatalf("fired %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired %v, want %v", times, want)
		}
	}
	if task.Cycles() != 5 {
		t.Errorf("Cycles = %d, want 5", task.Cycles())
	}
}

func TestPeriodicFuzzDoesNotDrift(t *testing.T) {
	// With fuzz in [0, 119s] like the paper's workload, cycle N must fire in
	// [N*period, N*period+119s] — fuzz must not accumulate.
	s := NewScheduler(t0)
	rng := NewRNG("fuzztest")
	fuzz := func() time.Duration {
		return time.Duration(rng.Stream("fuzz").Pick(120)) * time.Second
	}
	var times []time.Duration
	if _, err := s.Periodic(t0, 10*time.Minute, fuzz, func(now time.Time) {
		times = append(times, now.Sub(t0))
	}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(t0.Add(6 * time.Hour))
	if len(times) < 30 {
		t.Fatalf("only %d cycles in 6h", len(times))
	}
	for i, at := range times {
		base := time.Duration(i) * 10 * time.Minute
		if at < base || at > base+119*time.Second {
			t.Fatalf("cycle %d at %v outside [%v, %v+119s]: fuzz drifted", i, at, base, base)
		}
	}
}

func TestPeriodicStop(t *testing.T) {
	s := NewScheduler(t0)
	n := 0
	var task *Task
	var err error
	task, err = s.Periodic(t0, time.Minute, nil, func(time.Time) {
		n++
		if n == 3 {
			task.Stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(t0.Add(time.Hour))
	if n != 3 {
		t.Errorf("fired %d times after Stop at 3", n)
	}
}

func TestPeriodicRejectsBadPeriod(t *testing.T) {
	s := NewScheduler(t0)
	if _, err := s.Periodic(t0, 0, nil, func(time.Time) {}); err == nil {
		t.Error("zero period accepted")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG("winter0910")
	b := NewRNG("winter0910")
	for i := 0; i < 100; i++ {
		if x, y := a.Stream("weather").Uniform(0, 1), b.Stream("weather").Uniform(0, 1); x != y {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, x, y)
		}
	}
}

func TestRNGStreamIndependence(t *testing.T) {
	// Drawing extra values from one stream must not change another stream.
	a := NewRNG("winter0910")
	b := NewRNG("winter0910")
	for i := 0; i < 1000; i++ {
		a.Stream("weather").Uniform(0, 1) // extra draws on a different stream
	}
	for i := 0; i < 50; i++ {
		if x, y := a.Stream("failure").Uniform(0, 1), b.Stream("failure").Uniform(0, 1); x != y {
			t.Fatalf("stream 'failure' perturbed by 'weather' draws at %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG("winter0910")
	b := NewRNG("winter1011")
	same := 0
	for i := 0; i < 20; i++ {
		if a.Stream("x").Uniform(0, 1) == b.Stream("x").Uniform(0, 1) {
			same++
		}
	}
	if same == 20 {
		t.Error("different master seeds produced identical streams")
	}
}

func TestRNGBernoulliEdges(t *testing.T) {
	r := NewRNG("edges")
	if r.Stream("s").Bernoulli(0) {
		t.Error("p=0 returned true")
	}
	if !r.Stream("s").Bernoulli(1) {
		t.Error("p=1 returned false")
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	r := NewRNG("rate")
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Stream("s").Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if rate < 0.24 || rate > 0.26 {
		t.Errorf("Bernoulli(0.25) empirical rate %v", rate)
	}
}

func TestRNGPoissonMean(t *testing.T) {
	r := NewRNG("poisson")
	for _, mean := range []float64{0.5, 4, 60} {
		sum := 0
		n := 20000
		for i := 0; i < n; i++ {
			sum += r.Stream("s").Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if got < mean*0.95-0.05 || got > mean*1.05+0.05 {
			t.Errorf("Poisson(%v) empirical mean %v", mean, got)
		}
	}
	if r.Stream("s").Poisson(0) != 0 || r.Stream("s").Poisson(-1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestRNGWeibullMean(t *testing.T) {
	// For shape 1 the Weibull is exponential with mean = scale.
	r := NewRNG("weibull")
	sum := 0.0
	n := 50000
	for i := 0; i < n; i++ {
		sum += r.Stream("s").Weibull(1, 100)
	}
	got := sum / float64(n)
	if got < 95 || got > 105 {
		t.Errorf("Weibull(1, 100) empirical mean %v, want ≈100", got)
	}
}

func TestRNGWeibullPositive(t *testing.T) {
	r := NewRNG("wpos")
	for i := 0; i < 10000; i++ {
		if v := r.Stream("s").Weibull(0.7, 50); v <= 0 {
			t.Fatalf("non-positive Weibull draw %v", v)
		}
	}
}

func TestRNGExponentialMean(t *testing.T) {
	r := NewRNG("exp")
	sum := 0.0
	n := 50000
	for i := 0; i < n; i++ {
		sum += r.Stream("s").exponential(42)
	}
	if got := sum / float64(n); got < 40 || got > 44 {
		t.Errorf("exponential(42) empirical mean %v", got)
	}
}

func TestRNGPickBounds(t *testing.T) {
	r := NewRNG("pick")
	for i := 0; i < 1000; i++ {
		if v := r.Stream("s").Pick(7); v < 0 || v >= 7 {
			t.Fatalf("Pick(7) = %d out of range", v)
		}
	}
	if r.Stream("s").Pick(0) != 0 {
		t.Error("Pick(0) should return 0")
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler(t0)
	for i := 0; i < b.N; i++ {
		_, _ = s.After(time.Duration(i)*time.Microsecond, func(time.Time) {})
	}
	b.ResetTimer()
	for s.Step() {
	}
}

// BenchmarkSchedulerReferenceMix dispatches the reference run's event mix
// in steady state: 19 staggered 10-minute workload tasks with 0–119 s
// start fuzz drawn from per-host streams, beside 1-, 5-, 15-, 20- and
// 60-minute periodic tasks. Most dispatches sift the heap both ways.
func BenchmarkSchedulerReferenceMix(b *testing.B) {
	s := NewScheduler(t0)
	rng := NewRNG("mix")
	for h := 0; h < 19; h++ {
		st := rng.Stream(fmt.Sprintf("fuzz/%02d", h))
		fuzz := func() time.Duration { return time.Duration(st.Pick(120)) * time.Second }
		if _, err := s.Periodic(t0.Add(time.Duration(h)*time.Hour), 10*time.Minute, fuzz, func(time.Time) {}); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute, 20 * time.Minute, time.Hour} {
		if _, err := s.Periodic(t0, p, nil, func(time.Time) {}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 100000; i++ { // past the staggered starts
		s.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkRNGNormal(b *testing.B) {
	r := NewRNG("bench")
	for i := 0; i < b.N; i++ {
		_ = r.Stream("s").Normal(0, 1)
	}
}

// runAll dispatches every pending event. It guards against runaway
// self-rescheduling with a generous cap and returns an error if the cap is
// reached.
func (s *Scheduler) runAll(maxEvents uint64) error {
	var n uint64
	for s.Step() {
		n++
		if n >= maxEvents {
			return fmt.Errorf("simkernel: runAll exceeded %d events", maxEvents)
		}
	}
	return nil
}

// exponential draws from an exponential distribution with the given mean.
// It has no caller in the program; it stays beside the test that pins it.
func (s *Stream) exponential(mean float64) float64 {
	return s.rand().ExpFloat64() * mean
}

// TestSchedulerKeyRange: a due time whose offset from the start does not
// fit an int64 of nanoseconds (about 292 years) is refused by At, After and
// Periodic with ErrRange, instead of saturating into a misordered key. An
// instant just inside the range still orders after a nearer one.
func TestSchedulerKeyRange(t *testing.T) {
	s := NewScheduler(t0)
	far := t0.AddDate(300, 0, 0)
	nop := func(time.Time) {}
	if _, err := s.At(far, nop); !errors.Is(err, ErrRange) {
		t.Errorf("At(start+300y) error %v, want ErrRange", err)
	}
	s.RunUntil(t0.AddDate(100, 0, 0))
	if _, err := s.After(200*365*24*time.Hour, nop); !errors.Is(err, ErrRange) {
		t.Errorf("After(200y) at start+100y error %v, want ErrRange", err)
	}
	if _, err := s.Periodic(far, time.Minute, nil, nop); !errors.Is(err, ErrRange) {
		t.Errorf("Periodic(start+300y) error %v, want ErrRange", err)
	}
	if s.Pending() != 0 {
		t.Fatalf("refused schedules left %d events queued", s.Pending())
	}

	var order []int
	edge := t0.Add(time.Duration(math.MaxInt64))
	if _, err := s.At(edge, func(time.Time) { order = append(order, 2) }); err != nil {
		t.Fatalf("At(last in-range instant): %v", err)
	}
	if _, err := s.At(t0.AddDate(290, 0, 0), func(time.Time) { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(far)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("dispatch order %v, want [1 2]", order)
	}
	if !s.Now().Equal(far) {
		t.Fatalf("clock %v after RunUntil(%v)", s.Now(), far)
	}
}
