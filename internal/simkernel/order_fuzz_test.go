package simkernel

import (
	"fmt"
	"testing"
	"time"
)

// refBefore is the scheduler's original comparator: earlier due time first,
// FIFO among equal due times, compared as time.Time values.
func refBefore(a, b *refEvent) bool {
	if a.due.Equal(b.due) {
		return a.seq < b.seq
	}
	return a.due.Before(b.due)
}

// refEvent, refTask and refSched form the oracle: a linear-scan scheduler
// with the Scheduler's documented semantics (FIFO ties, O(1) cancel,
// un-drifting periodic fuzz clamped to now) ordered by refBefore.
type refEvent struct {
	due      time.Time
	seq      uint64
	canceled bool
	fire     func(now time.Time)
}

type refTask struct {
	s       *refSched
	period  time.Duration
	fuzz    func() time.Duration
	fire    func(now time.Time)
	ev      *refEvent
	base    time.Time
	stopped bool
}

type refSched struct {
	now     time.Time
	seq     uint64
	fired   uint64
	pending []*refEvent
}

func (s *refSched) schedule(t time.Time, fire func(time.Time)) *refEvent {
	e := &refEvent{due: t, seq: s.seq, fire: fire}
	s.seq++
	s.pending = append(s.pending, e)
	return e
}

// peek drops canceled events and returns the index of the earliest
// pending one, or -1.
func (s *refSched) peek() int {
	live := s.pending[:0]
	for _, e := range s.pending {
		if !e.canceled {
			live = append(live, e)
		}
	}
	s.pending = live
	min := -1
	for i, e := range s.pending {
		if min < 0 || refBefore(e, s.pending[min]) {
			min = i
		}
	}
	return min
}

func (s *refSched) step() bool {
	i := s.peek()
	if i < 0 {
		return false
	}
	e := s.pending[i]
	s.pending = append(s.pending[:i], s.pending[i+1:]...)
	s.now = e.due
	s.fired++
	e.fire(s.now)
	return true
}

func (s *refSched) runUntil(deadline time.Time) {
	for {
		i := s.peek()
		if i < 0 || s.pending[i].due.After(deadline) {
			break
		}
		s.step()
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
}

func (s *refSched) periodic(start time.Time, period time.Duration, fuzz func() time.Duration, fire func(time.Time)) *refTask {
	t := &refTask{s: s, period: period, fuzz: fuzz, fire: fire}
	t.scheduleNext(start)
	return t
}

func (t *refTask) scheduleNext(base time.Time) {
	t.base = base
	due := base
	if t.fuzz != nil {
		if f := t.fuzz(); f > 0 {
			due = due.Add(f)
		}
	}
	if due.Before(t.s.now) {
		due = t.s.now
	}
	t.ev = t.s.schedule(due, t.run)
}

func (t *refTask) run(now time.Time) {
	if t.stopped {
		return
	}
	t.fire(now)
	if !t.stopped {
		t.scheduleNext(t.base.Add(t.period))
	}
}

func (t *refTask) stop() {
	t.stopped = true
	t.ev.canceled = true
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (b *fuzzBytes) next() int {
	if b.pos >= len(b.data) {
		return 0
	}
	b.pos++
	return int(b.data[b.pos-1])
}

func (b *fuzzBytes) done() bool { return b.pos >= len(b.data) }

// offset maps a byte to a delay: the low two bits pick the grain, so equal
// due times (ties) are common, and the far grain reaches years ahead.
func offset(v int) time.Duration {
	grain := [4]time.Duration{time.Nanosecond, time.Second, 10 * time.Minute, 7 * 24 * time.Hour}
	return time.Duration(v>>2) * grain[v&3]
}

// FuzzSchedulerOrder runs one random program of At, After and Periodic
// schedules (with fuzz, ties, events scheduled from inside callbacks,
// cancellations and task stops) on a Scheduler and on the oracle, and
// requires the same dispatch order, clock and next-due time throughout.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 4, 0, 4, 1, 0, 2, 5, 1, 3, 0, 5, 7})
	f.Add([]byte{2, 1, 2, 9, 2, 1, 0, 2, 6, 41, 3, 1, 4, 0, 5, 3, 0, 255})
	f.Add([]byte{0, 3, 0, 3, 0, 3, 3, 1, 6, 200, 2, 0, 4, 4, 0, 5, 6})
	f.Add([]byte{2, 48}) // a periodic task starting 12 ns behind the clock
	f.Fuzz(func(t *testing.T, data []byte) {
		start := time.Date(2010, 2, 19, 0, 0, 0, 123456789, time.UTC)
		s := NewScheduler(start)
		ref := &refSched{now: start}
		var got, want []string
		record := func(log *[]string, label int) func(time.Time) {
			return func(now time.Time) {
				*log = append(*log, fmt.Sprintf("%d@%s", label, now.Format(time.RFC3339Nano)))
			}
		}
		// Every third one-shot schedules a child when it fires, at a small
		// offset that may tie with the parent's own instant.
		var shot func(label int, now time.Time)
		shot = func(label int, now time.Time) {
			record(&got, label)(now)
			if label%3 == 0 && label < 1000 {
				child := label + 1000
				if _, err := s.At(now.Add(time.Duration(label%4)*time.Second), func(at time.Time) { shot(child, at) }); err != nil {
					t.Fatal(err)
				}
			}
		}
		var refShot func(label int, now time.Time)
		refShot = func(label int, now time.Time) {
			record(&want, label)(now)
			if label%3 == 0 && label < 1000 {
				child := label + 1000
				ref.schedule(now.Add(time.Duration(label%4)*time.Second), func(at time.Time) { refShot(child, at) })
			}
		}
		fuzzFn := func(k int) func() time.Duration {
			n := 0
			return func() time.Duration {
				n++
				return time.Duration((n*k)%7-2) * 17 * time.Second // sometimes negative
			}
		}
		type shotPair struct {
			ev    *Event
			ref   *refEvent
			label int
		}
		var shots []shotPair
		type taskPair struct {
			task *Task
			ref  *refTask
		}
		var tasks []taskPair
		// fired marks one-shots that fired: the scheduler may recycle their
		// handles, so they are not canceled. A canceled one may be
		// canceled again.
		fired := map[int]bool{}
		in := &fuzzBytes{data: data}
		label := 0
		for op := 0; op < 48 && !in.done(); op++ {
			switch code := in.next() % 7; code {
			case 0, 1: // At or After
				l := label
				label++
				d := offset(in.next())
				fire := func(at time.Time) { fired[l] = true; shot(l, at) }
				var ev *Event
				var err error
				if code == 0 {
					ev, err = s.At(s.Now().Add(d), fire)
				} else {
					ev, err = s.After(d, fire)
				}
				if err != nil {
					t.Fatal(err)
				}
				rev := ref.schedule(ref.now.Add(d), func(at time.Time) { refShot(l, at) })
				shots = append(shots, shotPair{ev, rev, l})
			case 2: // Periodic
				l := label
				label++
				// A start behind the clock (even before the scheduler's
				// start) is clamped to now, and the task then fires at
				// now until its base catches up: the far grain would make
				// that burst hundreds of thousands of events long.
				v := in.next()
				d := offset(v)
				if in.next()%4 == 0 && v&3 != 3 {
					d = -d
				}
				startAt := s.Now().Add(d)
				period := time.Duration(in.next()%5+1) * time.Minute
				var fz, rfz func() time.Duration
				if k := in.next() % 3; k > 0 {
					fz, rfz = fuzzFn(k+2), fuzzFn(k+2)
				}
				task, err := s.Periodic(startAt, period, fz, func(at time.Time) { record(&got, l)(at) })
				if err != nil {
					t.Fatal(err)
				}
				rt := ref.periodic(startAt, period, rfz, func(at time.Time) { record(&want, l)(at) })
				tasks = append(tasks, taskPair{task, rt})
			case 3: // cancel a one-shot that has not fired
				if len(shots) > 0 {
					p := shots[in.next()%len(shots)]
					if !fired[p.label] {
						p.ev.Cancel()
						p.ref.canceled = true
					}
				}
			case 4: // stop a task
				if len(tasks) > 0 {
					p := tasks[in.next()%len(tasks)]
					p.task.Stop()
					p.ref.stop()
				}
			case 5: // step a few times
				for n := in.next() % 8; n > 0; n-- {
					if s.Step() != ref.step() {
						t.Fatal("Step disagrees on an empty queue")
					}
				}
			case 6: // run to a near deadline
				v := in.next()
				d := time.Duration(v>>2) * [4]time.Duration{time.Nanosecond, time.Second, time.Minute, 10 * time.Minute}[v&3]
				s.RunUntil(s.Now().Add(d))
				ref.runUntil(ref.now.Add(d))
			}
			checkOracle(t, s, ref, got, want)
		}
		s.RunUntil(s.Now().Add(2 * time.Hour))
		ref.runUntil(ref.now.Add(2 * time.Hour))
		checkOracle(t, s, ref, got, want)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// checkOracle compares the scheduler with the oracle: dispatch log, clock,
// fired count and next due time.
func checkOracle(t *testing.T, s *Scheduler, ref *refSched, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, oracle %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d = %s, oracle %s\n got %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
	if !s.Now().Equal(ref.now) || s.Fired() != ref.fired {
		t.Fatalf("clock %v fired %d, oracle %v fired %d", s.Now(), s.Fired(), ref.now, ref.fired)
	}
	due, ok := s.NextDue()
	i := ref.peek()
	if ok != (i >= 0) || ok && !due.Equal(ref.pending[i].due) {
		t.Fatalf("NextDue = %v %v, oracle index %d", due, ok, i)
	}
}
