package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"frostlab/internal/analysis"
	"frostlab/internal/core"
	"frostlab/internal/thermal"
	"frostlab/internal/weather"
)

func TestTableCondensation(t *testing.T) {
	wx := weather.ReferenceWinter0910("report-analysis")
	rep, err := analysis.CondensationStudy(wx, weather.ExperimentEpoch,
		weather.ExperimentEpoch.AddDate(0, 0, 14), time.Hour, 5, 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tbl := TableCondensation(rep)
	for _, want := range []string{"powered machine", "unpowered", "dew-point margin", "§5"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("condensation table missing %q:\n%s", want, tbl)
		}
	}
}

func TestTableAttribution(t *testing.T) {
	wx := weather.ReferenceWinter0910("report-attr")
	bare, err := analysis.AttributeDeltaT(wx, nil, 1400,
		weather.ExperimentEpoch, weather.ExperimentEpoch.AddDate(0, 0, 2), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	all := []thermal.Modification{thermal.ReflectiveFoil, thermal.RemoveInnerTent, thermal.OpenBottom, thermal.InstallFan}
	opened, err := analysis.AttributeDeltaT(wx, all, 1400,
		weather.ExperimentEpoch, weather.ExperimentEpoch.AddDate(0, 0, 2), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	tbl := TableAttribution(bare, opened)
	for _, want := range []string{"equipment-heat", "solar-gain", "R+I+B+F"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("attribution table missing %q:\n%s", want, tbl)
		}
	}
}

func TestRunAnalysesOnReferenceRun(t *testing.T) {
	r, err := reportRun()
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunAnalyses(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Condensation", "heat-balance", "exposure", "per 1000 h"} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Errorf("analysis bundle missing %q", want)
		}
	}
}

func TestLoadedResultsRenderFiguresIdentically(t *testing.T) {
	// A run saved with core.SaveResults and reloaded must feed the figure
	// pipeline identically — the frostctl -save / -load contract.
	r, err := reportRun()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.SaveResults(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := core.LoadResults(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	origFig, err := Fig3Temperatures(r)
	if err != nil {
		t.Fatal(err)
	}
	loadedFig, err := Fig3Temperatures(back)
	if err != nil {
		t.Fatal(err)
	}
	if origFig != loadedFig {
		t.Error("Fig. 3 differs after save/load")
	}
	if a, b := TableFailureRates(r), TableFailureRates(back); a != b {
		t.Error("failure table differs after save/load")
	}
	if a, b := TableWrongHashes(r), TableWrongHashes(back); a != b {
		t.Error("wrong-hash table differs after save/load")
	}
}

func TestFigCPUTemperatures(t *testing.T) {
	r, err := reportRun()
	if err != nil {
		t.Fatal(err)
	}
	// Default selection: must include the glitched host and render the
	// -111 floor.
	fig, err := FigCPUTemperatures(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig, "lm-sensors CPU readings") {
		t.Error("figure header missing")
	}
	if !strings.Contains(fig, "-111") {
		t.Errorf("reference run's CPU figure must show the -111°C floor:\n%s", fig)
	}
	// Results without records (e.g. reloaded) must fail cleanly.
	empty := *r
	empty.CPUTemps = nil
	if _, err := FigCPUTemperatures(&empty); err == nil {
		t.Error("missing CPU records accepted")
	}
}

func TestMarkdownReport(t *testing.T) {
	r, err := reportRun()
	if err != nil {
		t.Fatal(err)
	}
	md, err := Markdown(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# frostlab run report",
		"## Fig. 3 — temperatures",
		"## Failure rates (§4)",
		"## PUE (§5)",
		"```text",
		"| seed | `" + core.ReferenceSeed + "` |",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Fenced blocks must be balanced.
	if n := strings.Count(md, "```"); n%2 != 0 {
		t.Errorf("unbalanced code fences: %d", n)
	}
}

func TestTableExposureShape(t *testing.T) {
	bands := []analysis.ExposureBand{
		{Lo: -25, Hi: -20, Hours: 12, Failures: 0},
		{Lo: -20, Hi: -15, Hours: 100, Failures: 1},
	}
	tbl := TableExposure(bands)
	if !strings.Contains(tbl, "[-25, -20)") || !strings.Contains(tbl, "per 1000 h") {
		t.Errorf("exposure table malformed:\n%s", tbl)
	}
}
