package report

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"frostlab/internal/core"
	"frostlab/internal/hardware"
	"frostlab/internal/power"
	"frostlab/internal/stats"
	"frostlab/internal/timeseries"
)

// Fig1Schematic renders an ASCII rendition of the paper's Fig. 1 tent
// schematic, annotated with the heat-balance terms the thermal model
// implements. There is nothing quantitative to reproduce in Fig. 1; this
// exists so `frostctl -id fig1` has an answer.
func Fig1Schematic() string {
	return strings.Join([]string{
		"Fig. 1 — Tent shielding the computer hardware from rain and snow",
		"",
		"            ~ sunlight (solar aperture, cut by R: reflective foil) ~",
		"                 \\   |   /",
		"          ________\\__|__/_________",
		"         /                        \\      wind -> envelope conductance",
		"        /   double fabric layer    \\     (I: inner layer removed)",
		"       /   .------------------.     \\",
		"      |    | [01][02][03][06] |      |   equipment heat ~1.4 kW",
		"      |    | [10][11][14][15] |  ->  |   (F: tabletop fan assists)",
		"      |    | [18]  +switches  |      |",
		"       \\   '------------------'     /",
		"        \\__________________________/",
		"         ^^^^ elevated floor ^^^^        cool air through the bottom",
		"         (B: tarpaulin partly removed)",
		"",
		"  Heat balance: C dT/dt = G(T_out - T_in) + P_equipment + A*irradiance",
	}, "\n") + "\n"
}

// Fig2Timeline renders the installation timeline of the paper's Fig. 2:
// terrace hosts as Gantt bars from their install date to the reporting
// horizon (host 15's bar ends at its relocation).
func Fig2Timeline(r *core.Results) (string, error) {
	fleet, err := hardware.ReferenceFleet()
	if err != nil {
		return "", err
	}
	var rows []GanttRow
	for _, h := range fleet.At(hardware.Tent) {
		if h.InstalledAt.After(r.End) {
			continue
		}
		row := GanttRow{Label: h.ID, From: h.InstalledAt}
		if rep, ok := r.Hosts[h.ID]; ok && rep.Relocated && len(rep.Transients) > 0 {
			row.To = rep.Transients[len(rep.Transients)-1]
		}
		rows = append(rows, row)
	}
	g, err := Gantt(r.Start, r.End, rows)
	if err != nil {
		return "", err
	}
	return "Fig. 2 — Dates of when servers were installed (terrace group)\n\n" + g, nil
}

// modMarkers converts the applied tent modifications into plot markers.
func modMarkers(r *core.Results) []Marker {
	var ms []Marker
	for m, at := range r.Modifications {
		ms = append(ms, Marker{At: at, Label: m.String()})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].At.Before(ms[j].At) })
	return ms
}

// Fig3Temperatures renders the paper's Fig. 3: outside and inside
// temperatures with the R/I/B/F markers. The inside series starts at the
// Lascar logger's delivery.
func Fig3Temperatures(r *core.Results) (string, error) {
	cfg := PlotConfig{YLabel: "°C", Markers: modMarkers(r)}
	out, err := r.OutsideTemp.Resample(2 * time.Hour)
	if err != nil {
		return "", err
	}
	in, err := r.InsideTemp.Resample(2 * time.Hour)
	if err != nil {
		return "", err
	}
	p, err := Plot(cfg, out, in)
	if err != nil {
		return "", err
	}
	return "Fig. 3 — Temperatures outside and inside the tent (markers: R I B F)\n\n" + p, nil
}

// Fig4Humidity renders the paper's Fig. 4: relative humidities, with the
// inside record missing before the logger arrived.
func Fig4Humidity(r *core.Results) (string, error) {
	cfg := PlotConfig{YLabel: "%RH", Markers: modMarkers(r)}
	out, err := r.OutsideRH.Resample(2 * time.Hour)
	if err != nil {
		return "", err
	}
	in, err := r.InsideRH.Resample(2 * time.Hour)
	if err != nil {
		return "", err
	}
	p, err := Plot(cfg, out, in)
	if err != nil {
		return "", err
	}
	return "Fig. 4 — Relative humidities inside and outside the tent\n" +
		"(missing inside measurements: the Lascar data logger arrived late)\n\n" + p, nil
}

// FigCPUTemperatures renders a supplementary figure the paper describes in
// prose (§3.1, §4.2.1): the lm-sensors CPU record of two tent hosts.
// Plotting every recorded host would be cluttered, so it shows the
// glitched host if any, topped up with the first hosts by ID. A glitched
// chip's −111 °C readings appear as a dramatic floor line.
func FigCPUTemperatures(r *core.Results) (string, error) {
	if len(r.CPUTemps) == 0 {
		return "", fmt.Errorf("report: no CPU records in these results (reloaded runs omit them; re-run the experiment)")
	}
	var hostIDs []string
	for id, h := range r.Hosts {
		if h.ChipGlitched {
			hostIDs = append(hostIDs, id)
		}
	}
	sort.Strings(hostIDs)
	for _, id := range sortedSeriesIDs(r.CPUTemps) {
		if len(hostIDs) >= 2 {
			break
		}
		if !slices.Contains(hostIDs, id) {
			hostIDs = append(hostIDs, id)
		}
	}
	var series []*timeseries.Series
	for _, id := range hostIDs {
		s, ok := r.CPUTemps[id]
		if !ok {
			return "", fmt.Errorf("report: no CPU record for host %q", id)
		}
		rs, err := s.Resample(2 * time.Hour)
		if err != nil {
			return "", err
		}
		series = append(series, rs)
	}
	p, err := Plot(PlotConfig{YLabel: "°C"}, series...)
	if err != nil {
		return "", err
	}
	return "Supplementary — lm-sensors CPU readings of tent hosts (§3.1, §4.2.1)\n\n" + p, nil
}

func sortedSeriesIDs(m map[string]*timeseries.Series) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TableFailureRates renders the §4 failure-rate comparison, including the
// Intel air-economizer figure the paper cites.
func TableFailureRates(r *core.Results) string {
	intel := stats.Rate{Events: 20, Trials: 448} // 4.46% at Intel's scale [1]
	fmtRate := func(rt stats.Rate) []string {
		lo, hi, err := rt.WilsonInterval()
		if err != nil {
			return []string{rt.String(), "n/a"}
		}
		return []string{rt.String(), fmt.Sprintf("[%.1f%%, %.1f%%]", lo*100, hi*100)}
	}
	rows := [][]string{
		append([]string{"tent (test group, all terrace hosts)"}, fmtRate(r.TentHostFailureRate)...),
		append([]string{"basement (control group)"}, fmtRate(r.ControlHostFailureRate)...),
		append([]string{"initially installed hosts (paper's 5.6%)"}, fmtRate(r.InitialHostFailureRate)...),
		append([]string{"Intel air economizer PoC (cited)"}, fmtRate(intel)...),
	}
	dist, err := stats.Distinguishable(r.TentHostFailureRate, r.ControlHostFailureRate)
	verdict := "tent vs control: Wilson 95% intervals overlap -> not distinguishable"
	if err == nil && dist {
		verdict = "tent vs control: intervals disjoint -> distinguishable"
	}
	tent, ctrl := r.TentHostFailureRate, r.ControlHostFailureRate
	if p, err := stats.FisherExact(tent.Events, tent.Trials-tent.Events,
		ctrl.Events, ctrl.Trials-ctrl.Events); err == nil {
		verdict += fmt.Sprintf("\nFisher's exact test (two-sided): p = %.3f", p)
	}
	return "Host transient-failure rates (§4)\n\n" +
		Table([]string{"group", "hosts failed", "95% Wilson CI"}, rows) +
		"\n" + verdict + "\n"
}

// TableWrongHashes renders §4.2.2's miscalculated-load accounting.
func TableWrongHashes(r *core.Results) string {
	var rows [][]string
	for _, inc := range r.WrongHashes {
		rows = append(rows, []string{
			inc.HostID,
			inc.Location,
			inc.At.Format("Jan 02 15:04"),
			fmt.Sprintf("%d of %d", len(inc.BadBlocks), inc.Blocks),
		})
	}
	perHost := map[string]int{}
	for _, inc := range r.WrongHashes {
		perHost[inc.HostID]++
	}
	var tentHosts, baseHosts int
	for host := range perHost {
		if h, ok := r.Hosts[host]; ok && h.Location == hardware.Tent {
			tentHosts++
		} else {
			baseHosts++
		}
	}
	head := fmt.Sprintf(
		"Wrong md5sum hashes (§4.2.2): %d of %d test runs (paper: 5 of 27627)\n"+
			"affected hosts: %d outside, %d inside (paper: 2 outside x1 each, 1 inside x3)\n\n",
		len(r.WrongHashes), r.TotalCycles, tentHosts, baseHosts)
	return head + Table([]string{"host", "location", "when", "corrupt blocks"}, rows)
}

// TableMemoryModel renders §4.2.2's page-failure estimate.
func TableMemoryModel(r *core.Results) string {
	rows := [][]string{
		{"workload cycles", fmt.Sprintf("%d", r.TotalCycles), "27627"},
		{"memory pages touched", fmt.Sprintf("%.2e", float64(r.PagesTouched)), "3.2e9 (\"ballpark\")"},
		{"wrong hashes", fmt.Sprintf("%d", len(r.WrongHashes)), "5"},
		{"implied failure ratio", fmt.Sprintf("1 in %.0fe6", 1/r.ImpliedPageFailureRate/1e6), "1 in 570e6"},
	}
	return "Memory soft-error model (§4.2.2)\n\n" +
		Table([]string{"quantity", "this run", "paper"}, rows)
}

// TablePUE renders the §5 cooling-chain arithmetic.
func TablePUE() (string, error) {
	plant := power.ReferenceCluster()
	pue, err := plant.PUE()
	if err != nil {
		return "", err
	}
	var rows [][]string
	rows = append(rows, []string{"IT load (new cluster, peak)", plant.ITLoad.String()})
	for _, c := range plant.Cooling {
		rows = append(rows, []string{c.Name, c.Draw.String()})
	}
	rows = append(rows,
		[]string{"total cooling", plant.CoolingDraw().String()},
		[]string{"naive PUE", fmt.Sprintf("%.2f (paper: 1.74)", pue)},
	)
	shared, err := power.SharedLoadPUE(plant, 0.2, 0.45)
	if err != nil {
		return "", err
	}
	rows = append(rows, []string{"PUE with existing CRACs sharing load",
		fmt.Sprintf("%.2f (\"the situation is worse\")", shared)})
	return "Data-center cooling chain and PUE (§5)\n\n" +
		Table([]string{"item", "value"}, rows), nil
}

// TablePrototype renders the §3.1 prototype weekend.
func TablePrototype(p *core.PrototypeResults) string {
	rows := [][]string{
		{"window", fmt.Sprintf("%s – %s", p.Start.Format("Jan 02"), p.End.Format("Jan 02")), "Fri Feb 12 – Mon Feb 15"},
		{"outside minimum", p.OutsideMin.String(), "-10.2°C"},
		{"outside average", p.OutsideMean.String(), "-9.2°C"},
		{"lowest CPU reading", p.CPUMin.String(), "below -4°C"},
		{"survived", fmt.Sprintf("%v", p.Survived), "true"},
		{"load cycles completed", fmt.Sprintf("%d", p.Cycles), "(not reported)"},
	}
	return "Prototype weekend (§3.1)\n\n" +
		Table([]string{"quantity", "this run", "paper"}, rows)
}

// TableEconomizer renders the cooling-energy comparison behind §1's cited
// 40–67% savings.
func TableEconomizer(c power.Comparison) string {
	rows := [][]string{
		{"free-cooling share of hours", fmt.Sprintf("%.1f%%", c.FreeCoolingFraction*100)},
		{"economizer cooling energy", fmt.Sprintf("%.0f kWh", float64(c.EconomizerEnergy))},
		{"conventional cooling energy", fmt.Sprintf("%.0f kWh", float64(c.ConventionalEnergy))},
		{"savings", fmt.Sprintf("%.1f%% (HP cites 40%%, Intel 67%%)", c.Savings*100)},
		{"economizer PUE", fmt.Sprintf("%.3f", c.EconomizerPUE)},
		{"conventional PUE", fmt.Sprintf("%.3f", c.ConventionalPUE)},
	}
	return "Air-economizer energy comparison (§1 context)\n\n" +
		Table([]string{"quantity", "value"}, rows)
}

// TableSensorFault renders the §4.2.1 lm-sensors incident from the event
// log.
func TableSensorFault(r *core.Results) string {
	var rows [][]string
	for _, ev := range r.Events {
		switch ev.Kind {
		case core.EventChipGlitch, core.EventChipLost, core.EventChipRecovered:
			rows = append(rows, []string{ev.At.Format("Jan 02 15:04"), ev.Subject, string(ev.Kind), ev.Detail})
		}
	}
	if len(rows) == 0 {
		return "lm-sensors fault sequence (§4.2.1): no chip glitched in this run\n"
	}
	return "lm-sensors fault sequence (§4.2.1)\n\n" +
		Table([]string{"when", "host", "event", "detail"}, rows)
}

// fleetRounds is the number of collection rounds the fleet ran: the
// largest per-host round count in the gap ledger.
func fleetRounds(r *core.Results) int {
	n := 0
	for _, hg := range r.MonitorGaps {
		n = max(n, hg.Rounds())
	}
	return n
}

// TableMonitoring summarises the §3.5 collection plane.
func TableMonitoring(r *core.Results) string {
	savings := 0.0
	if r.MonitorTotalBytes > 0 {
		savings = 1 - float64(r.MonitorLiteralBytes)/float64(r.MonitorTotalBytes)
	}
	rows := [][]string{
		{"collection rounds", fmt.Sprintf("%d", fleetRounds(r))},
		{"host collections", fmt.Sprintf("%d", r.MonitorRounds)},
		{"corpus bytes (full copies would move)", fmt.Sprintf("%d", r.MonitorTotalBytes)},
		{"literal bytes moved (rsync algorithm)", fmt.Sprintf("%d", r.MonitorLiteralBytes)},
		{"transfer saved", fmt.Sprintf("%.1f%%", savings*100)},
	}
	return "Monitoring plane (§3.5: rsync over an authenticated tunnel, every 20 min)\n\n" +
		Table([]string{"quantity", "value"}, rows)
}

// TableCoverage renders the gap ledger: which fraction of host-rounds the
// collector actually mirrored, and where the outages were. The paper's
// §4.2.1 incidents appear here as explicit per-host gaps instead of
// silent holes in the series.
func TableCoverage(r *core.Results) string {
	if len(r.MonitorGaps) == 0 {
		return "Collection coverage: no gap ledger recorded in this run\n"
	}
	rows := make([][]string, 0, len(r.MonitorGaps))
	for _, hg := range r.MonitorGaps {
		missed := "—"
		if len(hg.MissedRounds) > 0 {
			missed = roundRanges(hg.MissedRounds)
			if hg.Missed > len(hg.MissedRounds) {
				missed += " …"
			}
		}
		rows = append(rows, []string{
			hg.HostID,
			fmt.Sprintf("%d/%d", hg.Collected, hg.Rounds()),
			fmt.Sprintf("%.4f", hg.Coverage()),
			fmt.Sprintf("%d", hg.Skipped),
			fmt.Sprintf("%d", hg.LongestOutage),
			missed,
		})
	}
	return fmt.Sprintf("Collection coverage (fleet %.4f over %d rounds)\n\n",
		r.MonitorCoverage, fleetRounds(r)) +
		Table([]string{"host", "collected", "coverage", "skipped", "longest outage", "missed rounds"}, rows)
}

// roundRanges renders ascending round numbers as runs of consecutive
// rounds: "3, 1683–1826, 2008–2119".
func roundRanges(rounds []int) string {
	var b strings.Builder
	for i := 0; i < len(rounds); {
		j := i
		for j+1 < len(rounds) && rounds[j+1] == rounds[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		if j == i {
			fmt.Fprintf(&b, "%d", rounds[i])
		} else {
			fmt.Fprintf(&b, "%d–%d", rounds[i], rounds[j])
		}
		i = j + 1
	}
	return b.String()
}

// EventLog renders the full experiment event log.
func EventLog(r *core.Results) string {
	var rows [][]string
	for _, ev := range r.Events {
		rows = append(rows, []string{ev.At.Format("Jan 02 15:04"), string(ev.Kind), ev.Subject, ev.Detail})
	}
	return Table([]string{"when", "event", "subject", "detail"}, rows)
}
