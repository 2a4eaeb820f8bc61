// Package simkernel is frostlab's deterministic discrete-event simulation
// core. It provides a simulated clock, an event queue ordered by simulated
// time, periodic tasks with start-time fuzz (the paper's 0–119 s sleep
// before each workload cycle), and named, seeded random number streams so
// that every run of an experiment is exactly reproducible.
//
// Nothing in this package reads the wall clock: simulated time advances only
// when the scheduler dispatches events.
//
// The event loop is the hot path of every experiment — a reference run
// dispatches a few hundred thousand events, and a Monte-Carlo campaign
// multiplies that by its replicate count — so the scheduler is built to
// dispatch without allocating: periodic tasks own a single reusable event
// that is re-pushed each cycle, one-shot events fired and released are
// recycled through a free list, and the queue keeps its earliest event in a
// dedicated head slot so the common "fire, then re-push as the new
// earliest" cycle touches no heap levels at all.
package simkernel

import (
	"errors"
	"fmt"
	"time"
)

// Event is a scheduled callback. Fire runs at the event's due time with the
// scheduler's clock already advanced to that time.
//
// An Event handle is valid until the event fires: once dispatched, the
// scheduler may recycle the Event for a later scheduling call, so holding
// the pointer past the due time and then calling Cancel is a bug. Canceling
// a pending event remains O(1) and safe.
type Event struct {
	due  time.Time
	seq  uint64 // tie-breaker: FIFO among equal due times
	fire func(now time.Time)
	// canceled events stay in the heap but are skipped on pop; this keeps
	// cancellation O(1).
	canceled bool
	// pooled events were allocated by the scheduler and return to its free
	// list after firing; task-owned events (pooled == false) are embedded
	// in their Task and are never recycled.
	pooled bool
}

// Cancel prevents the event from firing. Canceling an already-canceled
// event is a no-op; canceling an event that has already fired is invalid
// (the handle may have been reused — see the Event doc comment).
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

// before reports whether a dispatches ahead of b: earlier due time first,
// FIFO among equal due times.
func before(a, b *Event) bool {
	if a.due.Equal(b.due) {
		return a.seq < b.seq
	}
	return a.due.Before(b.due)
}

// Scheduler is a discrete-event scheduler. It is not safe for concurrent
// use: the simulation is single-threaded by design, which is what makes it
// deterministic.
type Scheduler struct {
	now time.Time
	// head caches the earliest pending event outside the heap. When the
	// head fires and its task immediately re-pushes the next earliest event
	// (the overwhelmingly common case for fine-grained periodic physics),
	// the re-push lands straight back in the head slot without re-heapifying.
	// Invariant: when head is non-nil it orders before every queue element;
	// when head is nil the true minimum (if any) is queue[0].
	head   *Event
	queue  []*Event // binary min-heap of the remaining events
	free   []*Event // fired pooled events awaiting reuse
	seq    uint64
	nFired uint64
	fault  error
}

// ErrPast reports an attempt to schedule an event before the current
// simulated time.
var ErrPast = errors.New("simkernel: event scheduled in the past")

// NewScheduler returns a scheduler whose clock starts at the given instant.
func NewScheduler(start time.Time) *Scheduler {
	return &Scheduler{now: start}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() time.Time { return s.now }

// Pending returns the number of events waiting in the queue, including
// canceled ones that have not yet been skipped.
func (s *Scheduler) Pending() int {
	n := len(s.queue)
	if s.head != nil {
		n++
	}
	return n
}

// Fired returns the number of events dispatched so far.
func (s *Scheduler) Fired() uint64 { return s.nFired }

// Err returns the first scheduling fault recorded by a recurring task's
// re-schedule (see Task.Err). Drivers should check it when their dispatch
// loop finishes: a non-nil fault means some task silently stopped recurring.
func (s *Scheduler) Err() error { return s.fault }

// alloc takes an event from the free list, or allocates a fresh one.
func (s *Scheduler) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &Event{}
}

// recycle returns a fired pooled event to the free list.
func (s *Scheduler) recycle(e *Event) {
	if !e.pooled {
		return
	}
	e.fire = nil
	e.canceled = false
	s.free = append(s.free, e)
}

// push inserts a prepared event, preferring the head slot.
func (s *Scheduler) push(e *Event) {
	if s.head == nil {
		if len(s.queue) == 0 || before(e, s.queue[0]) {
			s.head = e
			return
		}
		s.heapPush(e)
		return
	}
	if before(e, s.head) {
		s.heapPush(s.head)
		s.head = e
		return
	}
	s.heapPush(e)
}

func (s *Scheduler) heapPush(e *Event) {
	s.queue = append(s.queue, e)
	i := len(s.queue) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(s.queue[i], s.queue[p]) {
			break
		}
		s.queue[i], s.queue[p] = s.queue[p], s.queue[i]
		i = p
	}
}

func (s *Scheduler) heapPop() *Event {
	n := len(s.queue)
	e := s.queue[0]
	last := s.queue[n-1]
	s.queue[n-1] = nil
	s.queue = s.queue[:n-1]
	if n := len(s.queue); n > 0 {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			s.queue[i] = last
			if l < n && before(s.queue[l], s.queue[min]) {
				min = l
			}
			if r < n && before(s.queue[r], s.queue[min]) {
				min = r
			}
			if min == i {
				break
			}
			s.queue[i] = s.queue[min]
			i = min
		}
		s.queue[i] = last
	}
	return e
}

// schedule prepares and enqueues an event at the absolute instant t.
func (s *Scheduler) schedule(e *Event, t time.Time, fire func(now time.Time)) error {
	if t.Before(s.now) {
		return fmt.Errorf("%w: %v < now %v", ErrPast, t, s.now)
	}
	e.due = t
	e.seq = s.seq
	s.seq++
	e.fire = fire
	e.canceled = false
	s.push(e)
	return nil
}

// At schedules fire to run at the absolute simulated instant t.
func (s *Scheduler) At(t time.Time, fire func(now time.Time)) (*Event, error) {
	if t.Before(s.now) {
		return nil, fmt.Errorf("%w: %v < now %v", ErrPast, t, s.now)
	}
	e := s.alloc()
	e.pooled = true
	_ = s.schedule(e, t, fire) // due already validated
	return e, nil
}

// After schedules fire to run d after the current simulated time.
func (s *Scheduler) After(d time.Duration, fire func(now time.Time)) (*Event, error) {
	if d < 0 {
		return nil, fmt.Errorf("%w: negative delay %v", ErrPast, d)
	}
	return s.At(s.now.Add(d), fire)
}

// Step dispatches the next pending event, advancing the clock to its due
// time. It returns false when the queue is empty.
func (s *Scheduler) Step() bool {
	e := s.peek()
	if e == nil {
		return false
	}
	s.head = nil
	s.now = e.due
	s.nFired++
	fire := e.fire
	s.recycle(e)
	fire(s.now)
	return true
}

// RunUntil dispatches events in order until the queue is empty or the next
// event is due after the deadline. The clock is finally advanced to the
// deadline itself, so periodic models observe a definite end time.
func (s *Scheduler) RunUntil(deadline time.Time) {
	for {
		e := s.peek()
		if e == nil || e.due.After(deadline) {
			break
		}
		s.Step()
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
}

// NextDue returns the due time of the next pending (non-canceled) event,
// or false when the queue is empty. Callers that need to interleave their
// own checks with dispatch — cancellation polls, deadline tests — can loop
// over NextDue/Step instead of RunUntil.
func (s *Scheduler) NextDue() (time.Time, bool) {
	e := s.peek()
	if e == nil {
		return time.Time{}, false
	}
	return e.due, true
}

// peek surfaces the earliest pending non-canceled event into the head slot
// and returns it, or nil when the queue is empty.
func (s *Scheduler) peek() *Event {
	for {
		if e := s.head; e != nil {
			if !e.canceled {
				return e
			}
			s.head = nil
			s.recycle(e)
			continue
		}
		if len(s.queue) == 0 {
			return nil
		}
		e := s.heapPop()
		if e.canceled {
			s.recycle(e)
			continue
		}
		s.head = e
		return e
	}
}

// Periodic schedules fire every period, starting at start plus a per-cycle
// fuzz drawn from fuzz (which may be nil for none). This mirrors the
// paper's workload scheduling: a 10-minute cycle where each host sleeps
// 0–119 seconds before commencing work. The returned Task can be stopped.
func (s *Scheduler) Periodic(start time.Time, period time.Duration, fuzz func() time.Duration, fire func(now time.Time)) (*Task, error) {
	if period <= 0 {
		return nil, fmt.Errorf("simkernel: non-positive period %v", period)
	}
	t := &Task{sched: s, period: period, fuzz: fuzz, fire: fire}
	t.ev.fire = t.run
	if err := t.scheduleNext(start); err != nil {
		return nil, err
	}
	return t, nil
}

// Task is a recurring scheduled activity created by Scheduler.Periodic. It
// owns exactly one Event for its whole lifetime: each cycle re-pushes that
// event with the next due time, so steady-state periodic dispatch performs
// zero allocations.
type Task struct {
	sched   *Scheduler
	period  time.Duration
	fuzz    func() time.Duration
	fire    func(now time.Time)
	ev      Event // the task's single reusable event (pooled == false)
	base    time.Time
	stopped bool
	cycles  uint64
	err     error
}

// Cycles returns how many times the task has fired.
func (t *Task) Cycles() uint64 { return t.cycles }

// Err returns the error that stopped the task's recurrence, if any. A
// recurring task re-schedules itself from inside its own dispatch, where
// there is no caller to return an error to; the fault is recorded here (and
// mirrored on Scheduler.Err) instead of being dropped.
func (t *Task) Err() error { return t.err }

// Stop prevents all future firings.
func (t *Task) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

// run is the task's event callback: dispatch the user fire, then re-push
// the owned event for the next cycle.
func (t *Task) run(now time.Time) {
	if t.stopped {
		return
	}
	t.cycles++
	t.fire(now)
	if !t.stopped {
		// The next cycle is anchored to the un-fuzzed base, so fuzz
		// does not accumulate drift across cycles.
		if err := t.scheduleNext(t.base.Add(t.period)); err != nil {
			// Surface the fault instead of silently ending the recurrence:
			// the driver checks Scheduler.Err at its loop boundary.
			if t.err == nil {
				t.err = err
			}
			if t.sched.fault == nil {
				t.sched.fault = fmt.Errorf("simkernel: periodic task re-schedule: %w", err)
			}
		}
	}
}

func (t *Task) scheduleNext(base time.Time) error {
	t.base = base
	due := base
	if t.fuzz != nil {
		f := t.fuzz()
		if f < 0 {
			f = 0
		}
		due = due.Add(f)
	}
	if due.Before(t.sched.Now()) {
		due = t.sched.Now()
	}
	return t.sched.schedule(&t.ev, due, t.ev.fire)
}
