package report

import (
	"fmt"
	"math"
	"strings"
	"time"

	"frostlab/internal/campaign"
	"frostlab/internal/core"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
)

// E17 rendering: the economics study's tables and figures. Everything
// here is a pure function of the sweep summary / fleet result, so a
// fixed-seed study renders byte-identically.

// fmtMoney renders $/cycle figures; NaN (no completed work) prints "-".
func fmtMoney(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.5f", v)
}

func fmtCarbon(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

// TableEconSweep is the study's headline: one row per sweep cell with the
// fleet-level completion, cost, and carbon per work-cycle.
func TableEconSweep(s *campaign.EconSummary) string {
	rows := make([][]string, 0, len(s.Cells))
	for i := range s.Cells {
		c := &s.Cells[i]
		r := c.Result
		rows = append(rows, []string{
			c.Policy, c.Set, c.Tariff,
			fmt.Sprintf("%.1f%%", 100*r.Completion()),
			fmtMoney(r.CostPerCycle()),
			fmtCarbon(r.CarbonPerCycle()),
			fmt.Sprintf("%.0f", r.Migrated),
			fmt.Sprintf("%.0f", r.Shed),
		})
	}
	return Table(
		[]string{"policy", "fleet", "tariff", "done", "$/cycle", "gCO2/cycle", "migrated", "shed"},
		rows,
	)
}

// TableEconAdvantage renders the policy-vs-baseline comparison: the
// cost-per-cycle edge on every comparable (fleet, tariff) pair.
func TableEconAdvantage(s *campaign.EconSummary, policy, baseline string) string {
	keys, adv := s.Advantage(policy, baseline)
	rows := make([][]string, 0, len(keys))
	for _, k := range keys {
		verdict := "loses"
		if adv[k] > 0 {
			verdict = "wins"
		}
		rows = append(rows, []string{k, fmt.Sprintf("%+.5f", adv[k]), verdict})
	}
	return fmt.Sprintf("%s vs %s, $/cycle saved:\n%s",
		policy, baseline, Table([]string{"fleet/tariff", "saving", "verdict"}, rows))
}

// TableEconSites breaks one fleet run down per site: work accounting,
// energy split, dollars, grams, and envelope residency.
func TableEconSites(r *core.FleetResult) string {
	rows := make([][]string, 0, len(r.Sites))
	for i := range r.Sites {
		s := &r.Sites[i]
		res := 0.0
		if r.Ticks > 0 {
			res = 100 * float64(s.EnvelopeTicks) / float64(r.Ticks)
		}
		rows = append(rows, []string{
			s.Name, s.Climate, s.Tariff,
			fmt.Sprintf("%.0f", s.Meter.CyclesDone),
			fmt.Sprintf("%.0f", s.Meter.CyclesIn),
			fmt.Sprintf("%.0f", s.Meter.CyclesOut),
			fmt.Sprintf("%.1f", float64(s.Meter.ITEnergy)),
			fmt.Sprintf("%.2f", float64(s.Meter.VentEnergy)),
			fmt.Sprintf("%.2f", s.Meter.CostUSD),
			fmt.Sprintf("%.0f", s.Meter.CarbonG),
			fmt.Sprintf("%.1f%%", res),
			fmt.Sprintf("%d", s.ControlStats.GuardTrips),
		})
	}
	return Table(
		[]string{"site", "climate", "tariff", "done", "in", "out",
			"IT kWh", "vent kWh", "$", "gCO2", "envelope", "guard trips"},
		rows,
	)
}

// siteSeries lifts one site trace into a timeseries for the plotters.
func siteSeries(r *core.FleetResult, name, unit string, vals []float64) (*timeseries.Series, error) {
	s := timeseries.New(name, unit)
	for i, v := range vals {
		if err := s.Append(r.Start.Add(time.Duration(i)*r.Step), v); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// FigEconSite is the per-site dual track: intake temperature against the
// allowable ceiling on the value track, the damper position on the band
// track below it — the multi-site sibling of the single-run control
// figure.
func FigEconSite(r *core.FleetResult, site string) (string, error) {
	var sr *core.SiteResult
	for i := range r.Sites {
		if r.Sites[i].Name == site {
			sr = &r.Sites[i]
			break
		}
	}
	if sr == nil {
		return "", fmt.Errorf("report: fleet has no site %q", site)
	}
	intake, err := siteSeries(r, "intake", "°C", sr.Intake)
	if err != nil {
		return "", err
	}
	ceiling := timeseries.New("ceiling", "°C")
	for i := range sr.Intake {
		if err := ceiling.Append(r.Start.Add(time.Duration(i)*r.Step), float64(units.FrostAllowable.TempHigh)); err != nil {
			return "", err
		}
	}
	damper, err := siteSeries(r, "damper", "open", sr.Damper)
	if err != nil {
		return "", err
	}
	fig, err := DualTrack(nil, ceiling, intake, damper)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s (%s on %s)\n%s", sr.Name, sr.Climate, sr.Tariff, fig), nil
}

// FigEconAssignment plots every site's assigned work-cycles on one grid —
// the migration picture: under follow-the-cold the hot site's share drains
// into the cold ones as afternoons peak.
func FigEconAssignment(r *core.FleetResult) (string, error) {
	series := make([]*timeseries.Series, 0, len(r.Sites))
	for i := range r.Sites {
		s, err := siteSeries(r, r.Sites[i].Name, "cycles", r.Sites[i].Assigned)
		if err != nil {
			return "", err
		}
		series = append(series, s)
	}
	return Plot(PlotConfig{YLabel: "cycles"}, series...)
}

// Econ renders the complete E17 report: sweep headline, the
// follow-the-cold advantage table, and the headline cell's per-site
// breakdown with its dual-track and assignment figures.
func Econ(s *campaign.EconSummary) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "E17 economics study %q: %d cells, %d-day horizon\n\n", s.Seed, len(s.Cells), s.Days)
	b.WriteString(TableEconSweep(s))
	b.WriteString("\n")
	b.WriteString(TableEconAdvantage(s, "follow-cold", "static"))

	// Headline cell: the first follow-cold cell of the sweep.
	var head *campaign.EconCell
	for i := range s.Cells {
		if s.Cells[i].Policy == "follow-cold" {
			head = &s.Cells[i]
			break
		}
	}
	if head == nil {
		return b.String(), nil
	}
	fmt.Fprintf(&b, "\nHeadline cell %s:\n\n", head.Label)
	b.WriteString(TableEconSites(head.Result))
	fig, err := FigEconAssignment(head.Result)
	if err != nil {
		return "", err
	}
	b.WriteString("\nAssigned work-cycles per site:\n")
	b.WriteString(ensureNewline(fig))
	for i := range head.Result.Sites {
		fig, err := FigEconSite(head.Result, head.Result.Sites[i].Name)
		if err != nil {
			return "", err
		}
		b.WriteString("\n")
		b.WriteString(ensureNewline(fig))
	}
	return b.String(), nil
}
