package report

import (
	"fmt"
	"time"

	"frostlab/internal/core"
	"frostlab/internal/power"
	"frostlab/internal/weather"
)

// Artefact is one entry of the paper's artefact catalogue.
type Artefact struct {
	ID    string
	Title string
	// NeedsRun marks artefacts drawn from a normal-phase run.
	NeedsRun bool
	render   func(seed string, r *core.Results) (string, error)
}

// Render draws the artefact for the run r, or for seed when there is no
// run (r is nil). It returns "" when the artefact does not apply to r:
// the control figure of an open-loop run, the monitoring tables of an
// unmonitored one, the CPU figure of a reloaded one.
func (a Artefact) Render(seed string, r *core.Results) (string, error) {
	if r != nil {
		seed = r.Seed
	} else if a.NeedsRun {
		return "", fmt.Errorf("report: artefact %q needs a run", a.ID)
	}
	return a.render(seed, r)
}

// Catalogue is the one list of the paper's artefacts, in print order.
// frostctl renders all of them after its run, or one by -id, and
// Markdown fences each under its title.
var Catalogue = []Artefact{
	{ID: "fig1", Title: "Fig. 1 — tent schematic", render: func(string, *core.Results) (string, error) {
		return Fig1Schematic(), nil
	}},
	{ID: "fig2", Title: "Fig. 2 — installation timeline", NeedsRun: true, render: withRun(Fig2Timeline)},
	{ID: "fig3", Title: "Fig. 3 — temperatures", NeedsRun: true, render: withRun(Fig3Temperatures)},
	{ID: "fig4", Title: "Fig. 4 — relative humidities", NeedsRun: true, render: withRun(Fig4Humidity)},
	{ID: "cpu", Title: "lm-sensors CPU readings (§3.1, §4.2.1)", NeedsRun: true, render: func(_ string, r *core.Results) (string, error) {
		if len(r.CPUTemps) == 0 {
			return "", nil
		}
		return FigCPUTemperatures(r)
	}},
	{ID: "failures", Title: "Failure rates (§4)", NeedsRun: true, render: table(TableFailureRates)},
	{ID: "hashes", Title: "Wrong hashes (§4.2.2)", NeedsRun: true, render: table(TableWrongHashes)},
	{ID: "memory", Title: "Memory soft-error model (§4.2.2)", NeedsRun: true, render: table(TableMemoryModel)},
	{ID: "lmsensors", Title: "lm-sensors fault sequence (§4.2.1)", NeedsRun: true, render: table(TableSensorFault)},
	{ID: "monitoring", Title: "Monitoring plane (§3.5)", NeedsRun: true, render: func(_ string, r *core.Results) (string, error) {
		if r.MonitorRounds == 0 {
			return "", nil
		}
		return TableMonitoring(r), nil
	}},
	{ID: "coverage", Title: "Collection coverage", NeedsRun: true, render: func(_ string, r *core.Results) (string, error) {
		if len(r.MonitorGaps) == 0 {
			return "", nil
		}
		return TableCoverage(r), nil
	}},
	{ID: "analysis", Title: "Discussion analyses (§5)", NeedsRun: true, render: withRun(RunAnalyses)},
	{ID: "events", Title: "Event log", NeedsRun: true, render: table(EventLog)},
	{ID: "pue", Title: "PUE (§5)", render: func(string, *core.Results) (string, error) {
		return TablePUE()
	}},
	{ID: "prototype", Title: "Prototype weekend (§3.1)", render: func(seed string, _ *core.Results) (string, error) {
		p, err := core.RunPrototype(seed)
		if err != nil {
			return "", err
		}
		return TablePrototype(p), nil
	}},
	{ID: "savings", Title: "Air-economizer savings (§1)", render: func(seed string, r *core.Results) (string, error) {
		cfg := core.DefaultConfig(seed)
		start, end := cfg.Start, cfg.End
		if r != nil {
			start, end = r.Start, r.End
		}
		cmp, err := power.DefaultEconomizer().Compare(weather.ReferenceWinter0910(seed), 75_000, start, end, time.Hour)
		if err != nil {
			return "", err
		}
		return TableEconomizer(cmp), nil
	}},
	{ID: "control", Title: "Fig. E14 — closed-loop free cooling", NeedsRun: true, render: func(_ string, r *core.Results) (string, error) {
		if r.Control == nil {
			return "", nil
		}
		return FigControl(r)
	}},
}

// ArtefactByID looks an artefact up in the Catalogue.
func ArtefactByID(id string) (Artefact, bool) {
	for _, a := range Catalogue {
		if a.ID == id {
			return a, true
		}
	}
	return Artefact{}, false
}

func withRun(f func(*core.Results) (string, error)) func(string, *core.Results) (string, error) {
	return func(_ string, r *core.Results) (string, error) { return f(r) }
}

func table(f func(*core.Results) string) func(string, *core.Results) (string, error) {
	return func(_ string, r *core.Results) (string, error) { return f(r), nil }
}
