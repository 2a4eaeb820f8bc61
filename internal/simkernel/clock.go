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
// earliest" cycle touches no heap levels at all. The heap never compares
// time.Time values: each event carries an integer key, its due time's
// offset in nanoseconds from the scheduler's start, and a periodic task
// advances its key by integer addition.
//
// Random draws go through Stream handles: RNG.Stream resolves a name once,
// and a subsystem keeps the handle for the subjects it draws for, so the
// per-event draws do no map lookups.
package simkernel

import (
	"errors"
	"fmt"
	"math"
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
	key  int64 // nanoseconds from the scheduler's start to due: the heap order
	due  time.Time
	seq  uint64 // tie-breaker: FIFO among equal due times
	fire func(now time.Time)
	// canceled events stay in the heap but are skipped on pop; this keeps
	// cancellation O(1).
	canceled bool
	// pooled events were allocated by the scheduler and return to its free
	// list after firing (a canceled one is dropped instead, so canceling
	// it again stays a no-op); task-owned events (pooled == false) are
	// embedded in their Task and are never recycled.
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
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// slot is one heap element: the event's order copied beside its pointer,
// so sifting compares without dereferencing events.
type slot struct {
	key int64
	seq uint64
	ev  *Event
}

func (a slot) before(b slot) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// Scheduler is a discrete-event scheduler. It is not safe for concurrent
// use: the simulation is single-threaded by design, which is what makes it
// deterministic.
type Scheduler struct {
	now time.Time
	// origin is the start instant without a monotonic clock reading; event
	// keys and nowKey are nanosecond offsets from it.
	origin time.Time
	nowKey int64
	// head caches the earliest pending event outside the heap. When the
	// head fires and its task immediately re-pushes the next earliest event
	// (the overwhelmingly common case for fine-grained periodic physics),
	// the re-push lands straight back in the head slot without re-heapifying.
	// Invariant: when head is non-nil it orders before every queue element;
	// when head is nil the true minimum (if any) is queue[0].
	head   *Event
	queue  []slot   // binary min-heap of the remaining events
	free   []*Event // fired pooled events awaiting reuse
	seq    uint64
	nFired uint64
	fault  error
}

// ErrPast reports an attempt to schedule an event before the current
// simulated time.
var ErrPast = errors.New("simkernel: event scheduled in the past")

// ErrRange reports a due time too far from the scheduler's start for its
// offset to fit an int64 of nanoseconds (about 292 years).
var ErrRange = errors.New("simkernel: event due out of the scheduler's range")

// NewScheduler returns a scheduler whose clock starts at the given instant.
func NewScheduler(start time.Time) *Scheduler {
	return &Scheduler{now: start, origin: start.Round(0)}
}

// keyOf returns t's offset in nanoseconds from the scheduler's start,
// ignoring monotonic clock readings. ok is false when the offset does not
// fit an int64; the key is then saturated, which still orders t correctly
// against every in-range instant.
func (s *Scheduler) keyOf(t time.Time) (key int64, ok bool) {
	// Sub is exact unless it saturates; an extreme result is checked.
	d := t.Round(0).Sub(s.origin)
	if d == math.MaxInt64 || d == math.MinInt64 {
		return int64(d), s.origin.Add(d).Equal(t)
	}
	return int64(d), true
}

// rangeErr describes a due time whose key does not fit.
func (s *Scheduler) rangeErr(t time.Time) error {
	return fmt.Errorf("%w: %v is over %v from start %v", ErrRange, t, time.Duration(math.MaxInt64), s.origin)
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
		if len(s.queue) == 0 || before(e, s.queue[0].ev) {
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
	x := slot{key: e.key, seq: e.seq, ev: e}
	s.queue = append(s.queue, x)
	i := len(s.queue) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(s.queue[p]) {
			break
		}
		s.queue[i] = s.queue[p]
		i = p
	}
	s.queue[i] = x
}

func (s *Scheduler) heapPop() *Event {
	n := len(s.queue) - 1
	e := s.queue[0].ev
	last := s.queue[n]
	s.queue[n] = slot{}
	s.queue = s.queue[:n]
	if n == 0 {
		return e
	}
	// Sift last down from the root, under the smaller child each time.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.queue[r].before(s.queue[c]) {
			c = r
		}
		if !s.queue[c].before(last) {
			break
		}
		s.queue[i] = s.queue[c]
		i = c
	}
	s.queue[i] = last
	return e
}

// schedule prepares and enqueues an event due at t, whose key the caller
// has checked.
func (s *Scheduler) schedule(e *Event, t time.Time, key int64, fire func(now time.Time)) {
	e.key = key
	e.due = t
	e.seq = s.seq
	s.seq++
	e.fire = fire
	e.canceled = false
	s.push(e)
}

// At schedules fire to run at the absolute simulated instant t.
func (s *Scheduler) At(t time.Time, fire func(now time.Time)) (*Event, error) {
	key, ok := s.keyOf(t)
	if key < s.nowKey {
		return nil, fmt.Errorf("%w: %v < now %v", ErrPast, t, s.now)
	}
	if !ok {
		return nil, s.rangeErr(t)
	}
	e := s.alloc()
	e.pooled = true
	s.schedule(e, t, key, fire)
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
	s.now, s.nowKey = e.due, e.key
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
	// A saturated key still bounds every in-range event correctly.
	key, inRange := s.keyOf(deadline)
	for {
		e := s.peek()
		if e == nil || e.key > key {
			break
		}
		s.Step()
	}
	// Past the range the keys saturate, and only the instants can tell.
	if key > s.nowKey || !inRange && s.now.Before(deadline) {
		s.now, s.nowKey = deadline, key
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
			continue
		}
		if len(s.queue) == 0 {
			return nil
		}
		e := s.heapPop()
		if e.canceled {
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
	key, ok := s.keyOf(start)
	if !ok {
		return nil, s.rangeErr(start)
	}
	t := &Task{sched: s, period: period, fuzz: fuzz, fire: fire}
	t.ev.fire = t.run
	if err := t.scheduleNext(start, key); err != nil {
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
	baseKey int64 // base's key: later bases advance it by integer addition
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
		base := t.base.Add(t.period)
		key, ok := addKey(t.baseKey, t.period)
		var err error
		if ok {
			err = t.scheduleNext(base, key)
		} else {
			err = t.sched.rangeErr(base)
		}
		if err != nil {
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

// addKey returns key+d for d > 0, or false when the sum passes
// math.MaxInt64.
func addKey(key int64, d time.Duration) (int64, bool) {
	if key > math.MaxInt64-int64(d) {
		return 0, false
	}
	return key + int64(d), true
}

// scheduleNext pushes the task's event for the cycle based at base, whose
// key is baseKey.
func (t *Task) scheduleNext(base time.Time, baseKey int64) error {
	s := t.sched
	t.base, t.baseKey = base, baseKey
	due, key := base, baseKey
	if t.fuzz != nil {
		if f := t.fuzz(); f > 0 {
			var ok bool
			if key, ok = addKey(key, f); !ok {
				return s.rangeErr(base.Add(f))
			}
			due = base.Add(f)
		}
	}
	if key < s.nowKey {
		due, key = s.now, s.nowKey
	}
	s.schedule(&t.ev, due, key, t.ev.fire)
	return nil
}
