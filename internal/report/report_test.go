package report

import (
	"strings"
	"sync"
	"testing"
	"time"

	"frostlab/internal/core"
	"frostlab/internal/monitor"
	"frostlab/internal/power"
	"frostlab/internal/timeseries"
	"frostlab/internal/weather"
)

var t0 = time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)

func makeSeries(t *testing.T, name string, vals []float64) *timeseries.Series {
	t.Helper()
	s := timeseries.New(name, "°C")
	for i, v := range vals {
		if err := s.Append(t0.Add(time.Duration(i)*time.Hour), v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestPlotBasics(t *testing.T) {
	out := makeSeries(t, "outside", []float64{-10, -12, -9, -15, -8, -5, -7})
	in := makeSeries(t, "inside", []float64{2, 1, 3, -2, 4, 6, 5})
	cfg := PlotConfig{YLabel: "°C", Markers: []Marker{{At: t0.Add(3 * time.Hour), Label: "R"}}}
	p, err := Plot(cfg, out, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"outside", "inside", "*", "o", "R", "°C"} {
		if !strings.Contains(p, want) {
			t.Errorf("plot missing %q:\n%s", want, p)
		}
	}
	lines := strings.Split(p, "\n")
	if len(lines) < plotHeight+3 {
		t.Errorf("plot too short: %d lines", len(lines))
	}
}

func TestPlotValueScaling(t *testing.T) {
	s := makeSeries(t, "x", []float64{-20, 0, 20})
	p, err := Plot(PlotConfig{}, s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "20.0") || !strings.Contains(p, "-20.0") {
		t.Errorf("axis labels missing:\n%s", p)
	}
}

func TestPlotErrors(t *testing.T) {
	if _, err := Plot(PlotConfig{}); err == nil {
		t.Error("no series accepted")
	}
	empty := timeseries.New("e", "")
	if _, err := Plot(PlotConfig{}, empty); err == nil {
		t.Error("all-empty series accepted")
	}
}

func TestPlotGapVisible(t *testing.T) {
	// A series with a long gap must leave blank columns (missing Lascar
	// data), not interpolate.
	s := timeseries.New("gappy", "°C")
	if err := s.Append(t0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(t0.Add(time.Hour), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(t0.Add(100*time.Hour), 0); err != nil {
		t.Fatal(err)
	}
	p, err := Plot(PlotConfig{}, s)
	if err != nil {
		t.Fatal(err)
	}
	// The value row should be mostly blank between the points.
	rows := strings.Split(p, "\n")
	var valueRow string
	for _, r := range rows {
		if strings.Contains(r, "*") {
			valueRow = r
			break
		}
	}
	if strings.Count(valueRow, "*") > 10 {
		t.Errorf("gap appears filled: %q", valueRow)
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "long header"}, [][]string{
		{"x", "1"},
		{"longer-cell", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines %d, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Error("missing header rule")
	}
	if !strings.Contains(lines[2], "x") || !strings.Contains(lines[3], "longer-cell") {
		t.Error("rows missing")
	}
}

func TestGantt(t *testing.T) {
	rows := []GanttRow{
		{Label: "01", From: t0},
		{Label: "15", From: t0.AddDate(0, 0, 14), To: t0.AddDate(0, 0, 26)},
	}
	g, err := Gantt(t0, t0.AddDate(0, 0, 35), rows)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g, "01") || !strings.Contains(g, "15") {
		t.Errorf("labels missing:\n%s", g)
	}
	lines := strings.Split(g, "\n")
	l01 := lines[0]
	l15 := lines[1]
	if strings.Count(l01, "=") <= strings.Count(l15, "=") {
		t.Errorf("host 01 should have a longer bar:\n%s", g)
	}
	if _, err := Gantt(t0, t0, rows); err == nil {
		t.Error("inverted window accepted")
	}
}

// reportRun shares a reference experiment across the figure tests.
var reportRun = sync.OnceValues(func() (*core.Results, error) {
	cfg := core.DefaultConfig(core.ReferenceSeed)
	cfg.MonitorEvery = 2 * time.Hour // enough to exercise the monitoring table
	exp, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return exp.Run()
})

func TestFig1Schematic(t *testing.T) {
	s := Fig1Schematic()
	for _, want := range []string{"Fig. 1", "tent", "Heat balance"} {
		if !strings.Contains(strings.ToLower(s), strings.ToLower(want)) {
			t.Errorf("schematic missing %q", want)
		}
	}
}

func TestFig2Timeline(t *testing.T) {
	r, err := reportRun()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Fig2Timeline(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, host := range []string{"01", "02", "03", "06", "10", "11", "14", "15", "18", "19"} {
		if !strings.Contains(g, host) {
			t.Errorf("Fig. 2 missing host %s:\n%s", host, g)
		}
	}
}

func TestFig3And4(t *testing.T) {
	r, err := reportRun()
	if err != nil {
		t.Fatal(err)
	}
	f3, err := Fig3Temperatures(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"outside_temp", "tent_inside_temp", "R", "I", "B", "F"} {
		if !strings.Contains(f3, want) {
			t.Errorf("Fig. 3 missing %q", want)
		}
	}
	f4, err := Fig4Humidity(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"outside_rh", "tent_inside_rh", "arrived late"} {
		if !strings.Contains(f4, want) {
			t.Errorf("Fig. 4 missing %q", want)
		}
	}
}

func TestTables(t *testing.T) {
	r, err := reportRun()
	if err != nil {
		t.Fatal(err)
	}
	fr := TableFailureRates(r)
	for _, want := range []string{"tent", "basement", "Intel", "Wilson", "not distinguishable"} {
		if !strings.Contains(fr, want) {
			t.Errorf("failure table missing %q:\n%s", want, fr)
		}
	}
	wh := TableWrongHashes(r)
	if !strings.Contains(wh, "27627") || !strings.Contains(wh, "of") {
		t.Errorf("wrong-hash table malformed:\n%s", wh)
	}
	mm := TableMemoryModel(r)
	if !strings.Contains(mm, "570e6") {
		t.Errorf("memory table missing paper anchor:\n%s", mm)
	}
	pu, err := TablePUE()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pu, "1.74") || !strings.Contains(pu, "44.7kW") {
		t.Errorf("PUE table missing anchors:\n%s", pu)
	}
	sf := TableSensorFault(r)
	if !strings.Contains(sf, "-111") {
		t.Errorf("sensor fault table missing the bogus reading:\n%s", sf)
	}
	mon := TableMonitoring(r)
	if !strings.Contains(mon, "rsync") || !strings.Contains(mon, "%") {
		t.Errorf("monitoring table malformed:\n%s", mon)
	}
	cov := TableCoverage(r)
	if !strings.Contains(cov, "Collection coverage") || !strings.Contains(cov, "longest outage") {
		t.Errorf("coverage table malformed:\n%s", cov)
	}
	empty := TableCoverage(&core.Results{})
	if !strings.Contains(empty, "no gap ledger") {
		t.Errorf("empty coverage table malformed:\n%s", empty)
	}
	ev := EventLog(r)
	if !strings.Contains(ev, "install") {
		t.Error("event log missing installs")
	}
}

func TestTablePrototype(t *testing.T) {
	p, err := core.RunPrototype(core.ReferenceSeed)
	if err != nil {
		t.Fatal(err)
	}
	tbl := TablePrototype(p)
	for _, want := range []string{"-10.2", "-9.2", "-4", "survived"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("prototype table missing %q:\n%s", want, tbl)
		}
	}
}

func TestTableEconomizer(t *testing.T) {
	m := weather.ReferenceWinter0910(core.ReferenceSeed)
	c, err := power.DefaultEconomizer().Compare(m, 75_000,
		weather.ExperimentEpoch, weather.ExperimentEpoch.AddDate(0, 0, 30), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tbl := TableEconomizer(c)
	for _, want := range []string{"free-cooling", "savings", "Intel 67%", "PUE"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("economizer table missing %q:\n%s", want, tbl)
		}
	}
}

func BenchmarkPlot(b *testing.B) {
	s := timeseries.New("bench", "°C")
	for i := 0; i < 5000; i++ {
		_ = s.Append(t0.Add(time.Duration(i)*time.Minute), float64(i%37))
	}
	cfg := PlotConfig{YLabel: "°C"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Plot(cfg, s); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTableCoverageRanges renders a gapped ledger: missed rounds print as
// runs, a truncated list keeps its marker, and one long outage no longer
// widens every row of the table.
func TestTableCoverageRanges(t *testing.T) {
	outage := make([]int, 0, 256)
	for r := 1683; r <= 1826; r++ {
		outage = append(outage, r)
	}
	for r := 2008; len(outage) < cap(outage); r++ {
		outage = append(outage, r)
	}
	r := &core.Results{
		MonitorCoverage: 0.9,
		MonitorGaps: []monitor.HostGap{
			{HostID: "01", Collected: 2516},
			{HostID: "07", Collected: 2513, Missed: 3, LongestOutage: 2, MissedRounds: []int{3, 40, 41}},
			{HostID: "15", Collected: 2228, Missed: 288, LongestOutage: 144, MissedRounds: outage},
		},
	}
	cov := TableCoverage(r)
	for _, want := range []string{"3, 40–41", "1683–1826, 2008–2119 …", "—"} {
		if !strings.Contains(cov, want) {
			t.Errorf("coverage table lacks %q:\n%s", want, cov)
		}
	}
	for _, line := range strings.Split(cov, "\n") {
		if n := len([]rune(line)); n > 100 {
			t.Errorf("coverage line of %d characters:\n%s", n, line)
		}
	}
}
