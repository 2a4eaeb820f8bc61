package simkernel

import (
	"errors"
	"math"
	"testing"
	"time"
)

// TestSchedulerStepZeroAllocs pins the tentpole property of the event loop:
// dispatching a periodic task's steady-state cycle — pop the head event,
// fire, re-push the task's reusable event — performs zero allocations.
func TestSchedulerStepZeroAllocs(t *testing.T) {
	start := time.Date(2010, 2, 19, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	var fired int
	if _, err := s.Periodic(start.Add(time.Minute), time.Minute, nil, func(now time.Time) {
		fired++
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // settle the queue
		if !s.Step() {
			t.Fatal("queue drained during warmup")
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		if !s.Step() {
			t.Fatal("queue drained")
		}
	})
	if avg != 0 {
		t.Errorf("Scheduler.Step on a periodic task allocates %.2f objs/event, want 0", avg)
	}
	if fired < 1000 {
		t.Fatalf("task fired %d times, expected >= 1000", fired)
	}
}

// TestSchedulerStepZeroAllocsContended repeats the allocation bound with
// several interleaved tasks, so the measurement covers the heap path (not
// just the single-task head-slot shortcut).
func TestSchedulerStepZeroAllocsContended(t *testing.T) {
	start := time.Date(2010, 2, 19, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	periods := []time.Duration{time.Minute, 7 * time.Minute, 10 * time.Minute, 15 * time.Minute}
	for _, p := range periods {
		if _, err := s.Periodic(start.Add(p), p, nil, func(now time.Time) {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		s.Step()
	}
	avg := testing.AllocsPerRun(2000, func() {
		if !s.Step() {
			t.Fatal("queue drained")
		}
	})
	if avg != 0 {
		t.Errorf("contended Scheduler.Step allocates %.2f objs/event, want 0", avg)
	}
}

// TestOneShotEventReuse verifies the free list: once a fired one-shot event
// has been recycled, scheduling and dispatching further one-shots allocates
// nothing.
func TestOneShotEventReuse(t *testing.T) {
	start := time.Date(2010, 2, 19, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	nop := func(now time.Time) {}
	// Prime the free list with one fired event.
	if _, err := s.After(time.Second, nop); err != nil {
		t.Fatal(err)
	}
	if !s.Step() {
		t.Fatal("priming event did not fire")
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := s.After(time.Second, nop); err != nil {
			t.Fatal(err)
		}
		if !s.Step() {
			t.Fatal("event did not fire")
		}
	})
	if avg != 0 {
		t.Errorf("recycled one-shot schedule+dispatch allocates %.2f objs, want 0", avg)
	}
}

// TestScheduleRejectsPastAndRecordsFault: scheduling in the past fails
// with ErrPast, and a task whose re-schedule fails surfaces the fault through
// Task.Err and Scheduler.Err instead of swallowing it.
func TestScheduleRejectsPastAndRecordsFault(t *testing.T) {
	start := time.Date(2010, 2, 19, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	task, err := s.Periodic(start.Add(time.Minute), time.Minute, nil, func(now time.Time) {})
	if err != nil {
		t.Fatal(err)
	}
	if task.Err() != nil || s.Err() != nil {
		t.Fatalf("fresh task reports err %v / scheduler %v", task.Err(), s.Err())
	}

	if _, err := s.At(start.Add(-time.Second), func(now time.Time) {}); !errors.Is(err, ErrPast) {
		t.Fatalf("past schedule error %v, want ErrPast", err)
	}

	// A base behind the clock is clamped to now, so no fault is expected...
	task.base, task.baseKey = start.Add(-time.Hour), -int64(time.Hour)
	task.run(s.Now())
	if task.Err() != nil || s.Err() != nil {
		t.Fatalf("clamped re-schedule faulted: %v / %v", task.Err(), s.Err())
	}
	// ...but a next cycle past the key range is a fault, and it must
	// propagate to both accessors.
	task.baseKey = math.MaxInt64 - int64(30*time.Second)
	task.run(s.Now())
	if !errors.Is(s.Err(), ErrRange) || !errors.Is(task.Err(), ErrRange) {
		t.Fatalf("range fault not surfaced by Err accessors: %v / %v", task.Err(), s.Err())
	}
}

// TestTaskStopDoesNotRecycleOwnedEvent guards the free-list invariant:
// a stopped task's canceled event must not be handed out to later At calls,
// because the Task retains its pointer for the rest of its lifetime.
func TestTaskStopDoesNotRecycleOwnedEvent(t *testing.T) {
	start := time.Date(2010, 2, 19, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	task, err := s.Periodic(start.Add(time.Minute), time.Minute, nil, func(now time.Time) {})
	if err != nil {
		t.Fatal(err)
	}
	task.Stop()
	for s.Step() { // drain: skips the canceled task event
	}
	e, err := s.After(time.Hour, func(now time.Time) {})
	if err != nil {
		t.Fatal(err)
	}
	if e == &task.ev {
		t.Fatal("scheduler recycled a task-owned event into the free list")
	}
}
