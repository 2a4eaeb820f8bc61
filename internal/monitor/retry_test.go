package monitor

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestWaitContextCancelledBeforeSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	slept := false
	rp := RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Second, Multiplier: 2, JitterFrac: 0.5}
	err := rp.WaitContext(ctx, 1, 0.5, func(context.Context, time.Duration) error {
		slept = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitContext under cancelled ctx = %v, want context.Canceled", err)
	}
	if slept {
		t.Error("WaitContext slept under an already-cancelled context")
	}
}

func TestWaitContextUsesInjectedSleep(t *testing.T) {
	var got time.Duration
	rp := RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second, Multiplier: 2}
	err := rp.WaitContext(context.Background(), 2, 0, func(_ context.Context, d time.Duration) error {
		got = d
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := rp.Backoff(2, 0); got != want {
		t.Errorf("injected sleep saw %v, want Backoff(2,0) = %v", got, want)
	}
}

func TestSleepContextInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := SleepContext(ctx, time.Hour)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SleepContext = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, pause was not interrupted", elapsed)
	}
}

func TestSleepContextZeroDuration(t *testing.T) {
	if err := SleepContext(context.Background(), 0); err != nil {
		t.Errorf("zero-duration sleep = %v", err)
	}
}
