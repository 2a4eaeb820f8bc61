package report_test

import (
	"strings"
	"testing"
	"time"

	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/report"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
)

func mkSeries(t *testing.T, name string, start time.Time, step time.Duration, vals []float64) *timeseries.Series {
	t.Helper()
	s := timeseries.New(name, "x")
	for i, v := range vals {
		if err := s.Append(start.Add(time.Duration(i)*step), v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestDualTrack(t *testing.T) {
	start := time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)
	n := 48
	sp := make([]float64, n)
	pv := make([]float64, n)
	dm := make([]float64, n)
	for i := range sp {
		sp[i] = 12
		pv[i] = 6 + float64(i%12)
		dm[i] = float64(i) / float64(n-1)
	}
	out, err := report.DualTrack([]time.Time{start.Add(6 * time.Hour)},
		mkSeries(t, "setpoint", start, time.Hour, sp),
		mkSeries(t, "pv", start, time.Hour, pv),
		mkSeries(t, "damper", start, time.Hour, dm))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-", "*", "#", "!", "guard trips", "setpoint", "pv", "damper"} {
		if !strings.Contains(out, want) {
			t.Errorf("dual-track output missing %q:\n%s", want, out)
		}
	}
	// The band track must fill more columns near full opening than the
	// value track's frame allows to be accidental: the last band row
	// (lowest threshold) has more '#' than the first (highest).
	lines := strings.Split(out, "\n")
	counts := []int{}
	for _, ln := range lines {
		if strings.Contains(ln, "#") && strings.Contains(ln, "|") {
			counts = append(counts, strings.Count(ln, "#"))
		}
	}
	if len(counts) < 2 || counts[len(counts)-1] <= counts[0] {
		t.Errorf("band track not monotone in fill: %v", counts)
	}

	if _, err := report.DualTrack(nil, nil, nil, nil); err == nil {
		t.Error("missing series accepted")
	}
	empty := timeseries.New("empty", "x")
	if _, err := report.DualTrack(nil, empty, empty, empty); err == nil {
		t.Error("empty pv accepted")
	}
}

func TestFigControlAndStudyTable(t *testing.T) {
	cfg := core.DefaultConfig(core.ReferenceSeed)
	cfg.MonitorEvery = 0
	cfg.End = cfg.Start.AddDate(0, 0, 4)
	cfg.LascarArrival = cfg.Start // inside series from day one
	cfg.ReadoutEvery = 0
	cc := control.DefaultConfig()
	cfg.Control = &cc
	e, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	fig, err := report.FigControl(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. E14", "in-band ticks", "envelope residency", "duty normal"} {
		if !strings.Contains(fig, want) {
			t.Errorf("control figure missing %q", want)
		}
	}

	// Open-loop results must refuse to render the control figure.
	openCfg := cfg
	openCfg.Control = nil
	eo, err := core.New(openCfg)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := eo.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report.FigControl(ro); err == nil {
		t.Error("open-loop results rendered a control figure")
	}

	frac, n := report.EnvelopeResidency(r, units.FrostAllowable)
	if n == 0 || frac < 0 || frac > 1 {
		t.Errorf("envelope residency %.3f over %d samples", frac, n)
	}

	table := report.TableControlStudy([]report.ControlRow{
		{Scenario: "winter0910", Arm: "open-loop", EnvelopeFraction: 0.45, Samples: 10080, TentEnergyKWh: 694},
		{Scenario: "winter0910", Arm: "closed-loop", EnvelopeFraction: 0.67, Samples: 10080,
			TentEnergyKWh: 636, GuardTrips: 2, FallbackTicks: 0},
	})
	for _, want := range []string{"E14", "winter0910", "open-loop", "closed-loop", "67.0%", "guard trips"} {
		if !strings.Contains(table, want) {
			t.Errorf("study table missing %q:\n%s", want, table)
		}
	}
}

func TestEnvelopeResidencyEmpty(t *testing.T) {
	frac, n := report.EnvelopeResidency(&core.Results{}, units.FrostAllowable)
	if frac != 0 || n != 0 {
		t.Errorf("empty results residency %v/%d, want 0/0", frac, n)
	}
}
