package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"frostlab/internal/weather"
)

// pollCancelled is a context that reports cancellation from its second
// poll on. RunContext polls before the first event and then every
// ctxCheckEvery events, so the run stops about a simulated day in: after
// the installs at the start, while the pack-ahead goroutine is still
// working through the later hosts' trees.
type pollCancelled struct {
	context.Context
	polls int
}

func (c *pollCancelled) Err() error {
	c.polls++
	if c.polls > 1 {
		return context.Canceled
	}
	return nil
}

// checkGoroutines fails the test unless the goroutine count is back to
// base. A joined goroutine stays counted from closing its exit channel
// until it returns, which an OS thread switch can stretch to milliseconds;
// one that was not joined stays far longer (the cancelled run below leaves
// trees queued that take over a second to pack, and an unjoined agent
// blocks on its pipe forever).
func checkGoroutines(t *testing.T, base int, what string) {
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

// producerCount wraps the reference weather and counts the At calls of
// its clones, which in a classic run only the weather producer evaluates.
type producerCount struct {
	weather.Cloner
	calls *atomic.Int64
	clone bool
}

func (p producerCount) At(t time.Time) weather.Conditions {
	if p.clone {
		p.calls.Add(1)
	}
	return p.Cloner.At(t)
}

func (p producerCount) CloneModel() weather.Model {
	return producerCount{p.Cloner.CloneModel().(weather.Cloner), p.calls, true}
}

// TestPackAheadGoroutineJoined checks that no goroutine outlives a run:
// neither the pack-ahead goroutine nor the weather producer. The goroutine
// count returns to its baseline after a completed run, a run cancelled
// after its first installs, a run that fails fast at its first install,
// and an experiment built but never run. Each run must have started the
// weather producer.
func TestPackAheadGoroutineJoined(t *testing.T) {
	base := runtime.NumGoroutine()
	run := func(cfg Config, ctx context.Context, what string) error {
		t.Helper()
		calls := new(atomic.Int64)
		cfg.Weather = producerCount{Cloner: weather.ReferenceWinter0910(cfg.Seed), calls: calls}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.RunContext(ctx)
		if calls.Load() == 0 {
			t.Errorf("%s: the weather producer never ran", what)
		}
		checkGoroutines(t, base, what)
		return err
	}
	cfg := shortConfig("pack-ahead")
	cfg.MonitorEvery = 0
	if err := run(cfg, context.Background(), "completed run"); err != nil {
		t.Fatal(err)
	}

	// The full horizon queues every host's tree, and 1 MiB trees keep the
	// packer busy long after the run stops unless RunContext joins it.
	full := referenceConfig()
	full.WorkloadBytes = 1 << 20
	ctx := &pollCancelled{Context: context.Background()}
	if err := run(full, ctx, "cancelled run"); err != context.Canceled {
		t.Fatalf("cancelled run: err %v, want context.Canceled", err)
	}
	if ctx.polls < 2 {
		t.Fatalf("context polled %d times; the run never reached its first installs", ctx.polls)
	}

	// A block size the FBZ header cannot carry fails the first install.
	bad := cfg
	bad.WorkloadBlockSize = 1 << 33
	if err := run(bad, context.Background(), "failed-fast run"); err == nil {
		t.Fatal("failed-fast run: no error")
	}

	if _, err := New(full); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, base, "New without Run")
}

// TestInitialPackErrorNamesHost pins the error a pack failure surfaces: a
// block size Validate accepts but the FBZ header cannot carry fails the
// first host installed, with the same text whether or not its tree was
// packed ahead.
func TestInitialPackErrorNamesHost(t *testing.T) {
	cfg := shortConfig("pack-error")
	cfg.MonitorEvery = 0
	cfg.WorkloadBlockSize = 1 << 33
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.Run()
	const want = "workload: initial pack for 01: workload: block size 8589934592 outside 1..4294967295"
	if err == nil || err.Error() != want {
		t.Fatalf("err %v, want %q", err, want)
	}
}
