package rules

import (
	"sort"
	"time"

	"frostlab/internal/telemetry"
)

// AlertStatus is one alert instance's current state, as served by
// dash's /api/alerts.
type AlertStatus struct {
	Rule     string    `json:"rule"`
	Instance string    `json:"instance,omitempty"`
	Severity string    `json:"severity"`
	State    string    `json:"state"`
	Since    time.Time `json:"since"`
	Value    float64   `json:"value"`
}

// RuleStatus summarises one rule, as served by dash's /api/rules.
type RuleStatus struct {
	Name      string        `json:"name"`
	Kind      string        `json:"kind"`
	Expr      string        `json:"expr"`
	For       time.Duration `json:"for,omitempty"`
	Severity  string        `json:"severity,omitempty"`
	Instances int           `json:"instances"`
	Pending   int           `json:"pending,omitempty"`
	Firing    int           `json:"firing,omitempty"`
}

// IncidentLog is the open + recently-closed incident set, as served by
// dash's /api/incidents.
type IncidentLog struct {
	Open            []Incident `json:"open"`
	Resolved        []Incident `json:"resolved"`
	Total           uint64     `json:"total"`
	TimelineDropped uint64     `json:"timeline_dropped"`
}

// Report is the serializable end-of-run engine summary embedded in
// core.Results (and therefore in campaign checkpoints).
type Report struct {
	Evals          uint64     `json:"evals"`
	Records        uint64     `json:"records"`
	Transitions    uint64     `json:"transitions"`
	IncidentsTotal uint64     `json:"incidents_total"`
	Pending        int        `json:"pending"`
	Firing         int        `json:"firing"`
	Timeline       []Event    `json:"timeline"`
	Open           []Incident `json:"open,omitempty"`
	Resolved       []Incident `json:"resolved,omitempty"`
	Digest         string     `json:"digest"`
}

// Stats is the counter snapshot behind Instrument.
type Stats struct {
	Evals           uint64
	Records         uint64
	RecordsDropped  uint64
	Transitions     uint64
	IncidentsTotal  uint64
	Rules           int
	Instances       int
	Pending         int
	Firing          int
	OpenIncidents   int
	TimelineDropped uint64
}

// ActiveAlerts lists pending and firing instances, sorted by rule then
// instance.
func (e *Engine) ActiveAlerts() []AlertStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]AlertStatus, 0, e.pendingN+e.firingN)
	for _, rs := range e.rules {
		for _, in := range rs.insts {
			if in.state == StateInactive {
				continue
			}
			out = append(out, AlertStatus{
				Rule: rs.rule.Name, Instance: in.name,
				Severity: rs.rule.Severity, State: in.state.String(),
				Since: in.since, Value: in.value,
			})
		}
	}
	return out
}

// RuleStatuses summarises every rule in file order.
func (e *Engine) RuleStatuses() []RuleStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RuleStatus, 0, len(e.rules))
	for _, rs := range e.rules {
		st := RuleStatus{
			Name: rs.rule.Name, Expr: rs.rule.Expr(),
			For: rs.rule.For, Severity: rs.rule.Severity,
			Instances: len(rs.insts),
		}
		if rs.rule.Kind == KindRecord {
			st.Kind = "record"
		} else {
			st.Kind = "alert"
		}
		for _, in := range rs.insts {
			switch in.state {
			case StatePending:
				st.Pending++
			case StateFiring:
				st.Firing++
			}
		}
		out = append(out, st)
	}
	return out
}

// Incidents snapshots the open and recently-closed incident sets.
func (e *Engine) Incidents() IncidentLog {
	e.mu.Lock()
	defer e.mu.Unlock()
	return IncidentLog{
		Open:            e.openSorted(),
		Resolved:        append([]Incident(nil), e.closed...),
		Total:           e.incidentsTotal,
		TimelineDropped: e.tl.dropped,
	}
}

func (e *Engine) openSorted() []Incident {
	out := make([]Incident, 0, len(e.open))
	for _, inc := range e.open {
		out = append(out, *inc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Instance < out[j].Instance
	})
	return out
}

// Timeline returns the retained timeline events, oldest first.
func (e *Engine) Timeline() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tl.snapshot()
}

// TimelineDigest is the SHA-256 of the retained timeline in its canonical
// one-line-per-event form: the replay
// byte-identity anchor for determinism tests and E16.
func (e *Engine) TimelineDigest() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tl.digest()
}

// Report assembles the end-of-run summary.
func (e *Engine) Report() *Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &Report{
		Evals:          e.evals,
		Records:        e.records,
		Transitions:    e.transitions,
		IncidentsTotal: e.incidentsTotal,
		Pending:        e.pendingN,
		Firing:         e.firingN,
		Timeline:       e.tl.snapshot(),
		Open:           e.openSorted(),
		Resolved:       append([]Incident(nil), e.closed...),
		Digest:         e.tl.digest(),
	}
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	instances := 0
	for _, rs := range e.rules {
		instances += len(rs.insts)
	}
	return Stats{
		Evals:           e.evals,
		Records:         e.records,
		RecordsDropped:  e.recordsDropped,
		Transitions:     e.transitions,
		IncidentsTotal:  e.incidentsTotal,
		Rules:           len(e.set.Rules),
		Instances:       instances,
		Pending:         e.pendingN,
		Firing:          e.firingN,
		OpenIncidents:   len(e.open),
		TimelineDropped: e.tl.dropped,
	}
}

// Instrument registers the engine's self-metrics on reg. Gauges read
// Stats at scrape time; none of them invoke live callbacks.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	reg.CounterFunc("frostlab_rules_evals_total",
		"Rule evaluation ticks run.",
		func() float64 { return float64(e.Stats().Evals) })
	reg.CounterFunc("frostlab_rules_records_total",
		"Samples written by recording rules.",
		func() float64 { return float64(e.Stats().Records) })
	reg.CounterFunc("frostlab_rules_transitions_total",
		"Alert state-machine transitions.",
		func() float64 { return float64(e.Stats().Transitions) })
	reg.CounterFunc("frostlab_incidents_total",
		"Incidents opened since start.",
		func() float64 { return float64(e.Stats().IncidentsTotal) })
	reg.GaugeFunc("frostlab_rules_rules",
		"Rules loaded.",
		func() float64 { return float64(e.Stats().Rules) })
	reg.GaugeFunc("frostlab_rules_instances",
		"Rule instances after wildcard expansion.",
		func() float64 { return float64(e.Stats().Instances) })
	reg.GaugeFunc("frostlab_alerts_pending",
		"Alert instances in the pending state.",
		func() float64 { return float64(e.Stats().Pending) })
	reg.GaugeFunc("frostlab_alerts_firing",
		"Alert instances currently firing.",
		func() float64 { return float64(e.Stats().Firing) })
	reg.GaugeFunc("frostlab_incidents_open",
		"Open (unresolved) incidents.",
		func() float64 { return float64(e.Stats().OpenIncidents) })
}
