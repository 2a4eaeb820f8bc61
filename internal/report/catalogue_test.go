package report

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/monitor"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
)

// shortRun is a three-day unmonitored reference run: long enough for
// every run-dependent artefact to have content, short enough to pin.
var shortRun = sync.OnceValues(func() (*core.Results, error) {
	cfg := core.DefaultConfig(core.ReferenceSeed)
	cfg.MonitorEvery = 0
	cfg.End = cfg.Start.AddDate(0, 0, 3)
	exp, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return exp.Run()
})

// renderCatalogue prints every artefact that applies to r in catalogue
// order, each followed by a newline, exactly as frostctl does after its run.
func renderCatalogue(r *core.Results) (string, error) {
	var b strings.Builder
	for _, a := range Catalogue {
		s, err := a.Render(r.Seed, r)
		if err != nil {
			return "", fmt.Errorf("%s: %w", a.ID, err)
		}
		if s != "" {
			b.WriteString(s + "\n")
		}
	}
	return b.String(), nil
}

func md5Hex(s string) string {
	sum := md5.Sum([]byte(s))
	return hex.EncodeToString(sum[:])
}

// fixedSeries is an hourly series from t0 with the given values.
func fixedSeries(t *testing.T, name, unit string, vals []float64) *timeseries.Series {
	t.Helper()
	s := timeseries.New(name, unit)
	for i, v := range vals {
		if err := s.Append(t0.Add(time.Duration(i)*time.Hour), v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestRenderGolden pins the rendered bytes of the artefact catalogue on
// a short reference run, and of both dual-track figures on small fixed
// inputs, so a change to the plotting code that moves a glyph fails.
func TestRenderGolden(t *testing.T) {
	r, err := shortRun()
	if err != nil {
		t.Fatal(err)
	}
	all, err := renderCatalogue(r)
	if err != nil {
		t.Fatal(err)
	}

	const n = 30
	sp, pv, damper := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range sp {
		sp[i] = 12
		pv[i] = 4 + float64(i*7%19)
		damper[i] = float64(i%10) / 9
	}
	st := control.Stats{Ticks: 120, InBand: 80, GuardTrips: 1, GuardTicks: 6, EnvelopeTicks: 3, DutyChanges: 4}
	st.DutyTicks = [control.NumDutyLevels]int{100, 10, 8, 2}
	ctl, err := FigControl(&core.Results{Control: &core.ControlReport{
		Mode: "pi", Setpoint: 12, Envelope: units.FrostAllowable, Stats: st,
		MigratedCycles: 7, EnvelopeTicks: 120, EnvelopeInTicks: 96,
		Setpoints:  fixedSeries(t, "setpoint", "°C", sp),
		PV:         fixedSeries(t, "intake", "°C", pv),
		Damper:     fixedSeries(t, "damper", "open", damper),
		GuardTrips: []time.Time{t0.Add(9 * time.Hour)},
	}})
	if err != nil {
		t.Fatal(err)
	}

	site, err := FigEconSite(&core.FleetResult{
		Start: t0, Step: time.Hour, Ticks: n,
		Sites: []core.SiteResult{{Name: "north", Climate: "helsinki", Tariff: "paired", Intake: pv, Damper: damper}},
	}, "north")
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range []struct{ name, got, want string }{
		{"catalogue", all, "290bc57d87b4adc927f2417c434cf9d4"},
		{"FigControl", ctl, "868ccf41e21f70f3c97b5fa30bc21f56"},
		{"FigEconSite", site, "24d5ac2f8ece578c05caa586c008b61c"},
	} {
		if sum := md5Hex(g.got); sum != g.want {
			t.Errorf("%s renders md5 %s, want %s:\n%s", g.name, sum, g.want, g.got)
		}
	}
}

func TestCatalogueIDs(t *testing.T) {
	want := "fig1 fig2 fig3 fig4 cpu failures hashes memory lmsensors monitoring coverage analysis events pue prototype savings control"
	var ids []string
	seen := map[string]bool{}
	for _, a := range Catalogue {
		if seen[a.ID] {
			t.Errorf("artefact id %q listed twice", a.ID)
		}
		seen[a.ID] = true
		ids = append(ids, a.ID)
		if a.Title == "" {
			t.Errorf("artefact %q has no title", a.ID)
		}
		if got, ok := ArtefactByID(a.ID); !ok || got.ID != a.ID {
			t.Errorf("ArtefactByID(%q) = %q, %v", a.ID, got.ID, ok)
		}
	}
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("catalogue order\n got %s\nwant %s", got, want)
	}
	if _, ok := ArtefactByID("all"); ok {
		t.Error(`"all" must not name an artefact`)
	}
}

func TestCatalogueRendersReferenceRun(t *testing.T) {
	r, err := reportRun()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Catalogue {
		s, err := a.Render(r.Seed, r)
		if err != nil {
			t.Errorf("%s: %v", a.ID, err)
			continue
		}
		// Only the control figure needs a closed-loop run.
		if (s == "") != (a.ID == "control") {
			t.Errorf("%s rendered %d bytes on the monitored reference run", a.ID, len(s))
		}
		if a.NeedsRun {
			if _, err := a.Render(r.Seed, nil); err == nil {
				t.Errorf("%s rendered without a run", a.ID)
			}
		}
	}
}

// TestCatalogueTakesSeedFromRun: a saved run renders with its own seed
// and window, and an unmonitored one shows no monitoring tables, whatever
// the caller's defaults are.
func TestCatalogueTakesSeedFromRun(t *testing.T) {
	const seed = "catalogue-seed"
	start := time.Date(2010, time.February, 19, 0, 0, 0, 0, time.UTC)
	r := &core.Results{Seed: seed, Start: start, End: start.AddDate(0, 0, 2)}
	render := func(id, seed string, r *core.Results) string {
		t.Helper()
		a, ok := ArtefactByID(id)
		if !ok {
			t.Fatalf("no artefact %q", id)
		}
		s, err := a.Render(seed, r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return s
	}
	p, err := core.RunPrototype(seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := render("prototype", core.ReferenceSeed, r); got != TablePrototype(p) {
		t.Errorf("prototype ignores the run's seed:\n%s", got)
	}
	if render("prototype", core.ReferenceSeed, r) == render("prototype", core.ReferenceSeed, nil) {
		t.Error("prototype renders the same for two seeds")
	}
	if !strings.Contains(render("savings", core.ReferenceSeed, r), "free-cooling") {
		t.Error("savings table missing on a saved run")
	}
	for _, id := range []string{"cpu", "monitoring", "coverage", "control"} {
		if s := render(id, core.ReferenceSeed, r); s != "" {
			t.Errorf("%s rendered for a run without its records:\n%s", id, s)
		}
	}
}

// TestMonitoringCountsRounds: the monitoring table's round count is the
// fleet's, not the sum of per-host collections.
func TestMonitoringCountsRounds(t *testing.T) {
	cfg := core.DefaultConfig(core.ReferenceSeed)
	cfg.MonitorEvery = 20 * time.Minute
	cfg.End = cfg.Start.AddDate(0, 0, 1)
	exp, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	var online *monitor.HostGap
	for i, hg := range r.MonitorGaps {
		if hg.HostID == "01" && hg.Missed == 0 {
			online = &r.MonitorGaps[i]
		}
	}
	if online == nil {
		t.Fatalf("host 01 missed rounds: %+v", r.MonitorGaps)
	}
	table := TableMonitoring(r)
	if want := fmt.Sprintf("collection rounds %d", online.Rounds()); !strings.Contains(strings.Join(strings.Fields(table), " "), want) {
		t.Errorf("monitoring table lacks %q:\n%s", want, table)
	}
	if want := fmt.Sprintf("host collections %d", r.MonitorRounds); !strings.Contains(strings.Join(strings.Fields(table), " "), want) {
		t.Errorf("monitoring table lacks %q:\n%s", want, table)
	}
	if want := fmt.Sprintf("over %d rounds", online.Rounds()); !strings.Contains(TableCoverage(r), want) {
		t.Errorf("coverage table lacks %q:\n%s", want, TableCoverage(r))
	}
}
