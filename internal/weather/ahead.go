package weather

import "time"

// aheadChunk and aheadSlots size an Ahead's ring: three chunks of 256
// grid instants, about 30 KB of Conditions.
const (
	aheadChunk = 256
	aheadSlots = 3
)

// Ahead serves a model's conditions on a fixed time grid from a small ring
// that a producer goroutine fills ahead of the consumer, so the harmonic
// mixtures are evaluated on another core. The producer evaluates a clone
// of the model, and a clone's At is a pure function of t, so every
// Conditions the ring serves is bit-identical to what the model itself
// returns.
//
// The grid is start, start+step, … up to end, in start's Location. At
// serves a grid instant from the ring while the consumer walks forward.
// It falls back to the model itself for an instant off the grid, before
// start, past end, behind the ring's current chunk or in another Location
// (the model reads the clock and day of year), and for any call outside a
// Start…stop window. At and Start are for one goroutine, the consumer's.
type Ahead struct {
	model Cloner
	start time.Time
	step  time.Duration
	n     int // grid instants from start to end
	run   *aheadRun
}

// aheadRun is one producer's ring. The producer takes a free token, fills
// the next chunk's slot and sends on full; the consumer holds one chunk at
// a time and hands its token back before it receives the next. Those
// channel operations order every slot write before its reads.
type aheadRun struct {
	slots  [aheadSlots][aheadChunk]Conditions
	free   chan struct{}
	full   chan struct{}
	quit   chan struct{}
	exited chan struct{}
	cur    int  // chunk the consumer holds, -1 before the first
	dead   bool // the producer ended early; everything falls back
}

// NewAhead returns an idle prefetcher of m on the grid from start to end
// every step.
func NewAhead(m Cloner, start, end time.Time, step time.Duration) *Ahead {
	a := &Ahead{model: m, start: start, step: step}
	if step > 0 && !end.Before(start) {
		a.n = int(end.Sub(start)/step) + 1
	}
	return a
}

// Start launches the producer on its own clone of the model. stop halts
// it and waits for its goroutine to exit; it must be called exactly once,
// before Start is called again. An empty grid starts nothing.
func (a *Ahead) Start() (stop func()) {
	if a.n == 0 {
		return func() {}
	}
	r := &aheadRun{
		free:   make(chan struct{}, aheadSlots),
		full:   make(chan struct{}, aheadSlots),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
		cur:    -1,
	}
	for range aheadSlots {
		r.free <- struct{}{}
	}
	go a.produce(a.model.CloneModel(), r)
	a.run = r
	return func() {
		a.run = nil
		close(r.quit)
		<-r.exited
	}
}

// produce fills the ring chunk by chunk until the grid ends or quit
// closes. A panicking model ends the producer quietly: the consumer then
// evaluates every instant itself and meets the same panic on its own
// goroutine, at the instant the bare model raises it.
func (a *Ahead) produce(m Model, r *aheadRun) {
	defer close(r.exited)
	defer close(r.full)
	defer func() { _ = recover() }()
	for base := 0; base < a.n; base += aheadChunk {
		select {
		case <-r.quit:
			return
		case <-r.free:
		}
		slot := &r.slots[base/aheadChunk%aheadSlots]
		for j := range min(aheadChunk, a.n-base) {
			slot[j] = m.At(a.start.Add(time.Duration(base+j) * a.step))
		}
		r.full <- struct{}{}
	}
}

// At returns the conditions at t, from the ring when it holds them.
func (a *Ahead) At(t time.Time) Conditions {
	if r := a.run; r != nil && t.Location() == a.start.Location() {
		d := t.Sub(a.start)
		if i := d / a.step; d >= 0 && i*a.step == d && i < time.Duration(a.n) {
			if c, ok := r.at(int(i)); ok {
				return c
			}
		}
	}
	return a.model.At(t)
}

// at returns grid instant i from the ring, waiting for its chunk if the
// producer has not filled it yet; ok is false for a chunk already handed
// back or one the producer will never fill.
func (r *aheadRun) at(i int) (c Conditions, ok bool) {
	k := i / aheadChunk
	if r.dead || k < r.cur {
		return Conditions{}, false
	}
	for r.cur < k {
		if r.cur >= 0 {
			r.free <- struct{}{}
		}
		if _, ok := <-r.full; !ok {
			r.dead = true
			return Conditions{}, false
		}
		r.cur++
	}
	return r.slots[k%aheadSlots][i%aheadChunk], true
}
