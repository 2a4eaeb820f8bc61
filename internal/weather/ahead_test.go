package weather_test

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"frostlab/internal/climate"
	"frostlab/internal/weather"
)

// counting wraps a Cloner and counts At calls: the model handed to
// NewAhead counts into calls, and its clones, which the producer evaluates,
// into cloned.
type counting struct {
	weather.Cloner
	calls, cloned *atomic.Int64
}

func newCounting(m weather.Cloner) *counting {
	return &counting{Cloner: m, calls: new(atomic.Int64), cloned: new(atomic.Int64)}
}

func (c *counting) At(t time.Time) weather.Conditions {
	c.calls.Add(1)
	return c.Cloner.At(t)
}

func (c *counting) CloneModel() weather.Model {
	return &counting{Cloner: c.Cloner.CloneModel().(weather.Cloner), calls: c.cloned, cloned: c.cloned}
}

// aheadModels builds the models the prefetcher is checked over: the
// reference winter and a climate overlay whose night humidity reads the
// sun's elevation, both clock-dependent.
var aheadModels = []struct {
	name string
	make func(t *testing.T) weather.Cloner
}{
	{"reference", func(*testing.T) weather.Cloner { return weather.ReferenceWinter0910("ahead") }},
	{"tropical", func(t *testing.T) weather.Cloner {
		f, err := climate.Lookup("tropical")
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Model(weather.ExperimentEpoch, "ahead")
		if err != nil {
			t.Fatal(err)
		}
		return m.(weather.Cloner)
	}},
}

var (
	aheadStart = weather.ExperimentEpoch.AddDate(0, 0, 7)
	aheadEnd   = aheadStart.AddDate(0, 0, 3)
	eet        = time.FixedZone("EET", 2*60*60)
)

// checkBits fails unless got matches a fresh unwrapped model at t in every
// field, bit for bit.
func checkBits(t *testing.T, fresh weather.Cloner, at time.Time, got weather.Conditions, what string) {
	t.Helper()
	want := fresh.CloneModel().At(at)
	g := [...]float64{float64(got.Temp), float64(got.RH), float64(got.Wind), float64(got.Irradiance), got.SnowfallRate}
	w := [...]float64{float64(want.Temp), float64(want.RH), float64(want.Wind), float64(want.Irradiance), want.SnowfallRate}
	for i := range g {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s at %v: field %d is %v, the bare model gives %v", what, at, i, g[i], w[i])
		}
	}
}

// TestAheadGridMatchesModel walks every minute of a 3-day grid the way the
// engine does, asking some instants twice, and checks that the ring serves
// all of them, each bit-identical to the bare model.
func TestAheadGridMatchesModel(t *testing.T) {
	for _, mc := range aheadModels {
		t.Run(mc.name, func(t *testing.T) {
			m := newCounting(mc.make(t))
			fresh := mc.make(t)
			a := weather.NewAhead(m, aheadStart, aheadEnd, time.Minute)
			stop := a.Start()
			n := 0
			for at := aheadStart; !at.After(aheadEnd); at = at.Add(time.Minute) {
				checkBits(t, fresh, at, a.At(at), "grid")
				if n%15 == 0 {
					checkBits(t, fresh, at, a.At(at), "grid, asked again")
				}
				n++
			}
			stop()
			if got := m.calls.Load(); got != 0 {
				t.Errorf("the consumer's model evaluated %d grid instants; the ring should serve all", got)
			}
			if got := m.cloned.Load(); got != int64(n) {
				t.Errorf("the producer evaluated %d instants, want one per grid minute (%d)", got, n)
			}
		})
	}
}

// TestAheadFallbacks asks, between the grid steps of a walk, for every
// kind of instant the ring does not hold, and for the grid itself in
// another Location: each falls back to the consumer's model, each is
// bit-identical to the bare model, and the walk's own instants are still
// served from the ring.
func TestAheadFallbacks(t *testing.T) {
	for _, mc := range aheadModels {
		t.Run(mc.name, func(t *testing.T) {
			m := newCounting(mc.make(t))
			fresh := mc.make(t)
			a := weather.NewAhead(m, aheadStart, aheadEnd, time.Minute)

			// Before Start every instant falls back, grid ones too.
			checkBits(t, fresh, aheadStart, a.At(aheadStart), "before start")
			checkBits(t, fresh, aheadStart.Add(time.Hour), a.At(aheadStart.Add(time.Hour)), "before start")
			stop := a.Start()
			fallbacks := m.calls.Load()
			ask := func(at time.Time, what string) {
				t.Helper()
				checkBits(t, fresh, at, a.At(at), what)
				fallbacks++
				if got := m.calls.Load(); got != fallbacks {
					t.Fatalf("%s at %v: consumer model calls %d, want %d", what, at, got, fallbacks)
				}
			}
			i := 0
			for at := aheadStart; !at.After(aheadEnd); at = at.Add(time.Minute) {
				checkBits(t, fresh, at, a.At(at), "grid")
				if m.calls.Load() != fallbacks {
					t.Fatalf("grid instant %v fell back", at)
				}
				if i%97 == 0 {
					for _, at := range []time.Time{at, at.Add(17 * time.Second), at.Add(time.Nanosecond)} {
						ask(at.In(eet), "UTC+2")
					}
					ask(at.Add(17*time.Second), "odd second")
					ask(at.Add(time.Nanosecond), "nanosecond off the grid")
					ask(aheadStart.Add(-time.Minute), "before the grid")
					ask(aheadStart.Add(-30*time.Second), "before the grid, off it")
					ask(aheadEnd.Add(time.Minute), "past the grid")
					ask(aheadEnd.Add(24*time.Hour), "a day past the grid")
					ask(aheadEnd.Add(time.Minute).In(eet), "past the grid, UTC+2")
					if i >= 2*256 {
						behind := at.Add(-300 * time.Minute)
						ask(behind, "behind the current chunk")
						ask(behind.In(eet), "behind the current chunk, UTC+2")
					}
				}
				i++
			}
			stop()
			for _, at := range []time.Time{aheadStart, aheadEnd, aheadStart.Add(time.Hour)} {
				ask(at, "after stop")
			}
		})
	}
}

// TestAheadTimesOnAnotherLocation runs the grid itself in UTC+2: the ring
// then serves the EET wall clock, which eval reads, and every instant
// still matches the bare model.
func TestAheadTimesOnAnotherLocation(t *testing.T) {
	for _, mc := range aheadModels {
		t.Run(mc.name, func(t *testing.T) {
			m := newCounting(mc.make(t))
			fresh := mc.make(t)
			start, end := aheadStart.In(eet), aheadEnd.In(eet)
			a := weather.NewAhead(m, start, end, time.Minute)
			stop := a.Start()
			defer stop()
			for at := start; !at.After(end); at = at.Add(time.Minute) {
				checkBits(t, fresh, at, a.At(at), "EET grid")
				checkBits(t, fresh, at.UTC(), a.At(at.UTC()), "the EET grid asked in UTC")
			}
			if got, want := m.calls.Load(), int64(3*24*60+1); got != want {
				t.Errorf("consumer model calls %d, want %d (the UTC instants only)", got, want)
			}
		})
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base within a short grace period (a joined goroutine stays counted from
// closing its exit channel until it returns).
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(100 * time.Millisecond)
	got := runtime.NumGoroutine()
	for got > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > base {
		t.Errorf("%s: %d goroutines, baseline %d", what, got, base)
	}
}

// TestAheadStopJoinsParkedProducer stops the producer while it is parked
// on a full ring: before the consumer asks for anything, while it holds
// the first chunk, and mid-ring after it has handed two chunks back. stop
// must join the goroutine each time.
func TestAheadStopJoinsParkedProducer(t *testing.T) {
	for _, held := range []int{-1, 0, 2} {
		base := runtime.NumGoroutine()
		m := newCounting(weather.ReferenceWinter0910("parked"))
		a := weather.NewAhead(m, aheadStart, aheadStart.AddDate(0, 0, 30), time.Minute)
		stop := a.Start()
		for k := 0; k <= held; k++ {
			a.At(aheadStart.Add(time.Duration(k*256) * time.Minute))
		}
		// Three slots: the producer parks once it has filled the held
		// chunk and the two after it.
		full := int64(3+max(held, 0)) * 256
		deadline := time.Now().Add(5 * time.Second)
		for m.cloned.Load() < full && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond)
		if got := m.cloned.Load(); got != full {
			t.Fatalf("holding chunk %d: producer evaluated %d instants, want %d on a full ring", held, got, full)
		}
		stop()
		waitGoroutines(t, base, "stop on a full ring")
	}
}

// panicky panics at one instant, a pure function of t like any model.
type panicky struct {
	weather.Cloner
	at time.Time
}

func (p panicky) At(t time.Time) weather.Conditions {
	if t.Equal(p.at) {
		panic("panicky model")
	}
	return p.Cloner.At(t)
}

func (p panicky) CloneModel() weather.Model {
	return panicky{p.Cloner.CloneModel().(weather.Cloner), p.at}
}

// TestAheadPanicSurfacesOnConsumer checks that a model panicking on the
// producer's goroutine does not crash the process: the consumer falls back
// to its own model, and the panic surfaces on the consumer's goroutine at
// the instant the bare model raises it.
func TestAheadPanicSurfacesOnConsumer(t *testing.T) {
	base := runtime.NumGoroutine()
	bad := aheadStart.Add(300 * time.Minute)
	fresh := weather.ReferenceWinter0910("panicky")
	a := weather.NewAhead(panicky{weather.ReferenceWinter0910("panicky"), bad}, aheadStart, aheadEnd, time.Minute)
	stop := a.Start()
	at := aheadStart
	func() {
		defer func() {
			if p := recover(); p != "panicky model" {
				t.Errorf("recovered %v, want the model's panic", p)
			}
		}()
		for ; !at.After(aheadEnd); at = at.Add(time.Minute) {
			checkBits(t, fresh, at, a.At(at), "before the panic")
		}
	}()
	if !at.Equal(bad) {
		t.Errorf("panic surfaced at %v, want %v", at, bad)
	}
	stop()
	waitGoroutines(t, base, "after a panicking producer")
}
