package rules

import (
	"sort"
	"strings"
	"sync"
	"time"

	"frostlab/internal/tsdb"
	"frostlab/internal/units"
)

// incidentPrefix reserves a series namespace for persisted alert state
// transitions; the store's FTSB checkpoint then carries the incident
// timeline with no extra machinery. Wildcard expansion skips it.
const incidentPrefix = "_incident/"

// State is an alert instance's position in the for-duration machine.
type State int

const (
	StateInactive State = iota
	StatePending
	StateFiring
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	default:
		return "inactive"
	}
}

// ring is a fixed-capacity sample window for one source, shared by
// every windowed expression reading that source. Pushes never allocate.
type ring struct {
	live   int // index into liveFns, or -1 for a series source
	series string
	ts     []int64
	vs     []float64
	head   int
	n      int
}

func newRing(capacity int) *ring {
	return &ring{live: -1, ts: make([]int64, capacity), vs: make([]float64, capacity)}
}

func (r *ring) push(t int64, v float64) {
	r.ts[r.head], r.vs[r.head] = t, v
	r.head = (r.head + 1) % len(r.ts)
	if r.n < len(r.ts) {
		r.n++
	}
}

// lastT returns the most recently pushed timestamp.
func (r *ring) lastT() (int64, bool) {
	if r.n == 0 {
		return 0, false
	}
	return r.ts[(r.head-1+len(r.ts))%len(r.ts)], true
}

// at returns the i-th retained entry, oldest first.
func (r *ring) at(i int) (int64, float64) {
	j := (r.head - r.n + i + len(r.ts)) % len(r.ts)
	return r.ts[j], r.vs[j]
}

// rate computes the per-second change across entries with t >= from.
func (r *ring) rate(from int64) (float64, bool) {
	firstT, lastT := int64(0), int64(0)
	firstV, lastV := 0.0, 0.0
	count := 0
	for i := 0; i < r.n; i++ {
		t, v := r.at(i)
		if t < from {
			continue
		}
		if count == 0 {
			firstT, firstV = t, v
		}
		lastT, lastV = t, v
		count++
	}
	if count < 2 || lastT <= firstT {
		return 0, false
	}
	return (lastV - firstV) / (float64(lastT-firstT) / 1e9), true
}

// agg computes avg/min/max across entries with t >= from.
func (r *ring) agg(fn Fn, from int64) (float64, bool) {
	sum, lo, hi := 0.0, 0.0, 0.0
	count := 0
	for i := 0; i < r.n; i++ {
		t, v := r.at(i)
		if t < from {
			continue
		}
		if count == 0 {
			lo, hi = v, v
		} else {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		sum += v
		count++
	}
	if count == 0 {
		return 0, false
	}
	switch fn {
	case FnMin:
		return lo, true
	case FnMax:
		return hi, true
	default:
		return sum / float64(count), true
	}
}

const (
	liveUnknown = -2 // a $name no Live() callback was registered for
	liveSeries  = -1
)

// binding resolves one rule argument for one instance.
type binding struct {
	live   int // liveFns index, liveSeries, or liveUnknown
	series string
	ring   *ring // non-nil only for windowed functions
}

// instance is one concrete evaluation of a rule: singleton rules have
// one instance with an empty name, wildcarded rules one per matched
// host.
type instance struct {
	name  string
	key   string // rule\x00instance: incident identity
	binds []binding

	state State
	since time.Time
	value float64
	valid bool

	recID   uint32 // record rules: pre-registered output series
	recInit bool
}

// ruleState pairs a rule with its live instances.
type ruleState struct {
	rule  *Rule
	insts []*instance
}

// restoredState carries checkpoint-recovered alert state until the
// matching instance is built.
type restoredState struct {
	state State
	since time.Time
}

// Engine evaluates a RuleSet against one tsdb.Store plus registered
// live gauges. All methods are safe for concurrent use; Eval's warm
// path (no new series, no state transitions) performs zero
// allocations.
type Engine struct {
	mu    sync.Mutex
	set   *RuleSet
	store *tsdb.Store

	winCap    int
	liveNames []string
	liveFns   []func() float64
	liveIdx   map[string]int

	built   bool
	seriesN int
	rules   []*ruleState
	rings   []*ring
	ringKey map[string]*ring

	evals          uint64
	records        uint64
	recordsDropped uint64
	transitions    uint64
	incidentsTotal uint64
	pendingN       int
	firingN        int

	tl        *Timeline
	seq       uint64
	open      map[string]*Incident
	closed    []Incident
	closedCap int
	restored  map[string]restoredState
}

// NewEngine builds an engine over set and store. Register live gauges
// with Live before the first Eval.
func NewEngine(set *RuleSet, store *tsdb.Store) *Engine {
	return &Engine{
		set:       set,
		store:     store,
		winCap:    512,
		liveIdx:   make(map[string]int),
		ringKey:   make(map[string]*ring),
		tl:        newTimeline(1024),
		open:      make(map[string]*Incident),
		closedCap: 256,
		restored:  make(map[string]restoredState),
	}
}

// Live registers a gauge callback readable as $name. The callback is
// invoked only inside Eval (never from snapshot methods), so it may
// read state owned by the evaluating goroutine. Returns the engine for
// chaining.
func (e *Engine) Live(name string, fn func() float64) *Engine {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.liveIdx[name]; dup {
		panic("rules: duplicate live gauge " + name)
	}
	e.liveIdx[name] = len(e.liveFns)
	e.liveNames = append(e.liveNames, name)
	e.liveFns = append(e.liveFns, fn)
	e.built = false
	return e
}

// rebuild (re)expands wildcards and rebinds sources. Called on the
// first Eval and whenever the store's series count changes; instances
// that survive keep their alert state.
func (e *Engine) rebuild() {
	old := make(map[string]*instance)
	for _, rs := range e.rules {
		for _, in := range rs.insts {
			old[in.key] = in
		}
	}
	infos := e.store.Series()

	e.rules = e.rules[:0]
	e.rings = e.rings[:0]
	seenRing := make(map[*ring]bool)
	for i := range e.set.Rules {
		r := &e.set.Rules[i]
		rs := &ruleState{rule: r}
		names := []string{""}
		if r.wild() {
			names = matchHosts(r, infos, nil)
		}
		for _, name := range names {
			key := r.Name + "\x00" + name
			in := old[key]
			if in == nil {
				in = &instance{name: name, key: key}
				if st, ok := e.restored[key]; ok {
					in.state, in.since = st.state, st.since
					delete(e.restored, key)
				}
			}
			in.binds = in.binds[:0]
			for _, a := range r.Args {
				in.binds = append(in.binds, e.bind(r, a, name, seenRing))
			}
			if r.Kind == KindRecord && !in.recInit {
				out := r.Name
				if name != "" {
					out = name + "/" + r.Name
				}
				in.recID = e.store.EnsureSeries(out)
				in.recInit = true
			}
			rs.insts = append(rs.insts, in)
		}
		e.rules = append(e.rules, rs)
	}
	e.pendingN, e.firingN = 0, 0
	for _, rs := range e.rules {
		for _, in := range rs.insts {
			switch in.state {
			case StatePending:
				e.pendingN++
			case StateFiring:
				e.firingN++
			}
		}
	}
	e.seriesN = e.store.SeriesCount()
	e.built = true
}

// matchHosts lists (sorted) hosts for which every wildcard argument's
// concrete series exists.
func matchHosts(r *Rule, infos []tsdb.SeriesInfo, scratch []string) []string {
	hosts := scratch
	var first string
	for _, a := range r.Args {
		if a.Wild {
			first = a.wildSuffix()
			break
		}
	}
	suffix := "/" + first
	for _, info := range infos {
		if strings.HasPrefix(info.Name, incidentPrefix) || !strings.HasSuffix(info.Name, suffix) {
			continue
		}
		host := info.Name[:len(info.Name)-len(suffix)]
		if host == "" {
			continue
		}
		ok := true
		for _, a := range r.Args {
			if a.Wild && a.wildSuffix() != first {
				if _, found := findSeries(infos, host+"/"+a.wildSuffix()); !found {
					ok = false
					break
				}
			}
		}
		if ok {
			hosts = append(hosts, host)
		}
	}
	sort.Strings(hosts)
	return hosts
}

func findSeries(infos []tsdb.SeriesInfo, name string) (tsdb.SeriesInfo, bool) {
	i := sort.Search(len(infos), func(i int) bool { return infos[i].Name >= name })
	if i < len(infos) && infos[i].Name == name {
		return infos[i], true
	}
	return tsdb.SeriesInfo{}, false
}

// bind resolves one argument for one instance, creating or sharing the
// sample ring for windowed functions.
func (e *Engine) bind(r *Rule, a Source, host string, seenRing map[*ring]bool) binding {
	b := binding{live: liveSeries}
	switch {
	case a.Live:
		if idx, ok := e.liveIdx[a.Name]; ok {
			b.live = idx
		} else {
			b.live = liveUnknown
		}
	case a.Wild:
		b.series = host + "/" + a.wildSuffix()
	default:
		b.series = a.Name
	}
	windowed := r.Fn == FnRate || r.Fn == FnAvg || r.Fn == FnMin || r.Fn == FnMax
	if !windowed || b.live == liveUnknown {
		return b
	}
	key := "s\x00" + b.series
	if b.live >= 0 {
		key = "l\x00" + e.liveNames[b.live]
	}
	rg := e.ringKey[key]
	if rg == nil {
		rg = newRing(e.winCap)
		if b.live >= 0 {
			rg.live = b.live
		} else {
			rg.series = b.series
		}
		e.ringKey[key] = rg
	}
	if !seenRing[rg] {
		seenRing[rg] = true
		e.rings = append(e.rings, rg)
	}
	b.ring = rg
	return b
}

// Eval runs one evaluation tick at now: samples windows, writes
// recording rules, and steps every alert state machine. Deterministic
// for a deterministic sequence of store contents, live values, and now
// timestamps.
func (e *Engine) Eval(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.built || e.store.SeriesCount() != e.seriesN {
		e.rebuild()
	}
	nowNs := now.UnixNano()
	for _, rg := range e.rings {
		if rg.live >= 0 {
			rg.push(nowNs, e.liveFns[rg.live]())
			continue
		}
		t, v, ok := e.store.Latest(rg.series)
		if !ok {
			continue
		}
		if last, has := rg.lastT(); !has || t > last {
			rg.push(t, v)
		}
	}
	e.evals++
	for _, rs := range e.rules {
		for _, in := range rs.insts {
			v, ok := e.evalInstance(rs.rule, in, nowNs)
			in.value, in.valid = v, ok
			if rs.rule.Kind == KindRecord {
				if !ok {
					continue
				}
				if e.store.AppendID(in.recID, nowNs, v) != nil {
					e.recordsDropped++
				} else {
					e.records++
				}
				continue
			}
			e.step(rs.rule, in, now, ok && rs.rule.Cmp.holds(v, rs.rule.Threshold))
		}
	}
}

// readCur reads a binding's current value.
func (e *Engine) readCur(b binding) (float64, bool) {
	switch b.live {
	case liveUnknown:
		return 0, false
	case liveSeries:
		_, v, ok := e.store.Latest(b.series)
		return v, ok
	default:
		return e.liveFns[b.live](), true
	}
}

func (e *Engine) evalInstance(r *Rule, in *instance, nowNs int64) (float64, bool) {
	switch r.Fn {
	case FnValue:
		v, ok := readValid(e, in.binds[0])
		return v, ok
	case FnRate:
		if in.binds[0].ring == nil {
			return 0, false
		}
		return in.binds[0].ring.rate(nowNs - int64(r.Window))
	case FnAvg, FnMin, FnMax:
		if in.binds[0].ring == nil {
			return 0, false
		}
		return in.binds[0].ring.agg(r.Fn, nowNs-int64(r.Window))
	case FnAbsent:
		b := in.binds[0]
		if b.live == liveUnknown {
			return 0, false
		}
		if b.live >= 0 {
			return 0, true // live gauges are read on demand, never stale
		}
		t, _, ok := e.store.Latest(b.series)
		if !ok || nowNs-t > int64(r.Window) {
			return 1, true
		}
		return 0, true
	case FnDewMargin:
		air, ok1 := readValid(e, in.binds[0])
		rh, ok2 := readValid(e, in.binds[1])
		surf, ok3 := readValid(e, in.binds[2])
		if !ok1 || !ok2 || !ok3 {
			return 0, false
		}
		m, err := units.DewPointMargin(units.Celsius(air), units.RelHumidity(rh), units.Celsius(surf))
		if err != nil {
			return 0, false
		}
		return float64(m), true
	case FnOutsideEnv:
		t, ok1 := readValid(e, in.binds[0])
		rh, ok2 := readValid(e, in.binds[1])
		if !ok1 || !ok2 {
			return 0, false
		}
		if e.set.Envelope.Contains(units.Celsius(t), units.RelHumidity(rh)) {
			return 0, true
		}
		return 1, true
	default:
		return 0, false
	}
}

// readValid is readCur plus a NaN guard.
func readValid(e *Engine, b binding) (float64, bool) {
	v, ok := e.readCur(b)
	return v, ok && v == v
}

// step advances one alert instance's state machine.
func (e *Engine) step(r *Rule, in *instance, now time.Time, cond bool) {
	switch in.state {
	case StateInactive:
		if !cond {
			return
		}
		if r.For > 0 {
			in.state, in.since = StatePending, now
			e.pendingN++
			e.transition(r, in, now, EvPending)
			return
		}
		e.fire(r, in, now, now)
	case StatePending:
		if !cond {
			in.state = StateInactive
			e.pendingN--
			e.transition(r, in, now, EvCancelled)
			return
		}
		if now.Sub(in.since) >= r.For {
			e.pendingN--
			e.fire(r, in, now, in.since)
		}
	case StateFiring:
		if cond {
			return
		}
		in.state = StateInactive
		e.firingN--
		e.transition(r, in, now, EvResolved)
		if inc := e.open[in.key]; inc != nil {
			inc.ResolvedAt = now
			e.closed = append(e.closed, *inc)
			if len(e.closed) > e.closedCap {
				e.closed = append(e.closed[:0], e.closed[len(e.closed)-e.closedCap:]...)
			}
			delete(e.open, in.key)
		}
	}
}

func (e *Engine) fire(r *Rule, in *instance, now, pendingAt time.Time) {
	in.state, in.since = StateFiring, now
	e.firingN++
	e.transition(r, in, now, EvFiring)
	if e.open[in.key] == nil { // dedup: one open incident per (rule, instance)
		e.seq++
		e.incidentsTotal++
		e.open[in.key] = &Incident{
			ID: e.seq, Rule: r.Name, Instance: in.name, Severity: r.Severity,
			PendingAt: pendingAt, FiredAt: now, Value: in.value,
		}
	}
}

// transition records one state-machine edge: timeline append plus a
// persisted sample in the reserved incident series. Cold path — may
// allocate.
func (e *Engine) transition(r *Rule, in *instance, now time.Time, kind EventKind) {
	e.transitions++
	e.tl.append(Event{At: now, Rule: r.Name, Instance: in.name, Kind: kind, Value: in.value})
	// Best-effort: an out-of-order append (e.g. a clock step backwards
	// under wall time) drops the persisted sample, never the in-memory
	// event.
	_ = e.store.Append(incidentPrefix+r.Name+"/"+in.name, now.UnixNano(), float64(kind))
}

// Restore rebuilds the timeline and open-incident set from persisted
// "_incident/" series after a checkpoint restore. Call once, before
// the first Eval. Values carried by events are not persisted and
// restore as zero; severities are looked up from the current rule set.
func (e *Engine) Restore() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	type rev struct {
		t          int64
		rule, inst string
		kind       EventKind
	}
	var evs []rev
	for _, info := range e.store.Series() {
		rest, ok := strings.CutPrefix(info.Name, incidentPrefix)
		if !ok {
			continue
		}
		rule, inst, ok := strings.Cut(rest, "/")
		if !ok {
			continue
		}
		it, err := e.store.QueryAll(info.Name)
		if err != nil {
			continue
		}
		for it.Next() {
			t, v := it.At()
			k := EventKind(int(v))
			if k < EvPending || k > EvCancelled {
				continue
			}
			evs = append(evs, rev{t, rule, inst, k})
		}
		if err := it.Err(); err != nil {
			return err
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		if evs[i].rule != evs[j].rule {
			return evs[i].rule < evs[j].rule
		}
		return evs[i].inst < evs[j].inst
	})
	for _, ev := range evs {
		at := time.Unix(0, ev.t).UTC()
		e.tl.append(Event{At: at, Rule: ev.rule, Instance: ev.inst, Kind: ev.kind})
		key := ev.rule + "\x00" + ev.inst
		switch ev.kind {
		case EvPending:
			e.restored[key] = restoredState{state: StatePending, since: at}
		case EvFiring:
			e.restored[key] = restoredState{state: StateFiring, since: at}
			if e.open[key] == nil {
				e.seq++
				e.incidentsTotal++
				e.open[key] = &Incident{
					ID: e.seq, Rule: ev.rule, Instance: ev.inst,
					Severity:  e.severityOf(ev.rule),
					PendingAt: at, FiredAt: at,
				}
			}
		case EvResolved, EvCancelled:
			delete(e.restored, key)
			if inc := e.open[key]; inc != nil {
				inc.ResolvedAt = at
				e.closed = append(e.closed, *inc)
				if len(e.closed) > e.closedCap {
					e.closed = append(e.closed[:0], e.closed[len(e.closed)-e.closedCap:]...)
				}
				delete(e.open, key)
			}
		}
	}
	e.built = false
	return nil
}

func (e *Engine) severityOf(ruleName string) string {
	for i := range e.set.Rules {
		if e.set.Rules[i].Name == ruleName {
			return e.set.Rules[i].Severity
		}
	}
	return "warn"
}
