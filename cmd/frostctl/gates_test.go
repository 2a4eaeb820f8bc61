package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"frostlab/internal/chaos"
	"frostlab/internal/loadgen"
)

// loadReport decodes a committed study report from the repo root.
func loadReport(t *testing.T, name string, into any) {
	t.Helper()
	data, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

func TestServeGate(t *testing.T) {
	load := func() *loadgen.Report {
		var rep loadgen.Report
		loadReport(t, "BENCH_SERVE.json", &rep)
		return &rep
	}
	if err := serveGate(load()); err != nil {
		t.Fatalf("committed reference fails the gate: %v", err)
	}
	for name, mutate := range map[string]func(*loadgen.Report){
		"unaccounted":     func(r *loadgen.Report) { r.Phases[0].Unaccounted = 1 },
		"healthz failure": func(r *loadgen.Report) { r.Healthz.Failures = 1 },
		"ingest leak":     func(r *loadgen.Report) { r.Ingest.Offered++ },
		"no sustain":      func(r *loadgen.Report) { r.Phases = r.Phases[:2] },
		"sustain p99":     func(r *loadgen.Report) { r.PhaseByName("sustain").P99Ms = 250.5 },
		"never probed":    func(r *loadgen.Report) { r.Healthz.Probes = 0 },
		"goroutine leak":  func(r *loadgen.Report) { r.Goroutines.After = r.Goroutines.Before + 9 },
		"failed rounds":   func(r *loadgen.Report) { r.RoundsPlane.Failed = 1 },
	} {
		rep := load()
		mutate(rep)
		if err := serveGate(rep); err == nil {
			t.Errorf("%s: gate passed", name)
		}
	}
	// The bounds are inclusive: exactly 250 ms and exactly +8 goroutines pass.
	rep := load()
	rep.PhaseByName("sustain").P99Ms = 250
	rep.Goroutines.After = rep.Goroutines.Before + 8
	if err := serveGate(rep); err != nil {
		t.Errorf("report at the bounds fails the gate: %v", err)
	}
}

func TestAlertsGate(t *testing.T) {
	load := func() alertsBench {
		var b alertsBench
		loadReport(t, "BENCH_ALERTS.json", &b)
		return b
	}
	if err := alertsGate(load()); err != nil {
		t.Fatalf("committed reference fails the gate: %v", err)
	}
	for i, c := range load().Classes {
		b := load()
		b.Classes[i].MTTDSeconds = mttdBudget[c.Class] + 1
		if err := alertsGate(b); err == nil {
			t.Errorf("%s: MTTD over budget passed", c.Class)
		}
		b = load()
		b.Classes = append(b.Classes[:i], b.Classes[i+1:]...)
		if err := alertsGate(b); err == nil {
			t.Errorf("%s: missing class passed", c.Class)
		}
	}
	for name, mutate := range map[string]func(*alertsBench){
		"undetected":      func(b *alertsBench) { b.Classes[0].Detected = false },
		"replay diverged": func(b *alertsBench) { b.Classes[1].ReplayIdentical = false },
		"unknown class":   func(b *alertsBench) { b.Classes[2].Class = "meteor" },
	} {
		b := load()
		mutate(&b)
		if err := alertsGate(b); err == nil {
			t.Errorf("%s: gate passed", name)
		}
	}
}

func TestEconGate(t *testing.T) {
	load := func() econBench {
		var b econBench
		loadReport(t, "BENCH_ECON.json", &b)
		return b
	}
	if err := econGate(load()); err != nil {
		t.Fatalf("committed reference fails the gate: %v", err)
	}
	for name, mutate := range map[string]func(*econBench){
		"replay diverged":   func(b *econBench) { b.ReplayIdentical = false },
		"not conserved":     func(b *econBench) { b.ConservationOK = false },
		"follow-cold loses": func(b *econBench) { b.FollowColdWins = 0 },
		"zero completion":   func(b *econBench) { b.Cells[3].Completion = 0 },
		"over completion":   func(b *econBench) { b.Cells[5].Completion = 1.0001 },
		"NaN completion":    func(b *econBench) { b.Cells[7].Completion = math.NaN() },
	} {
		b := load()
		mutate(&b)
		if err := econGate(b); err == nil {
			t.Errorf("%s: gate passed", name)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string][]chaos.RoundRange
	}{
		{"", nil},
		{"03=1-4", map[string][]chaos.RoundRange{"03": {{From: 1, To: 4}}}},
		{"07=2-", map[string][]chaos.RoundRange{"07": {{From: 2}}}},
		{"05=5", map[string][]chaos.RoundRange{"05": {{From: 5, To: 5}}}},
		{"03=1-4,07=2-,03=9", map[string][]chaos.RoundRange{
			"03": {{From: 1, To: 4}, {From: 9, To: 9}},
			"07": {{From: 2}},
		}},
	} {
		got, err := parseSchedule(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, bad := range []string{"03", "=1-4", "03=x", "03=1-y", "03=-4"} {
		if _, err := parseSchedule(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
	// A reversed range parses; the injector rejects it.
	down, err := parseSchedule("03=5-2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chaos.New(chaos.Spec{Down: down}); err == nil {
		t.Error("reversed range 03=5-2 accepted by chaos.New")
	}
}

// TestChaosScheduleHostsInFleet: a -down or -stalled host outside the
// study's 01…09 fleet is an error that names the host, not a run in which
// the schedule silently never fires.
func TestChaosScheduleHostsInFleet(t *testing.T) {
	for _, tc := range []struct{ down, stalled, host string }{
		{"1=2-4", "", `"1"`},
		{"", "10=1", `"10"`},
		{"01=2-4,x=3", "", `"x"`},
	} {
		_, err := runChaosStudy(context.Background(), io.Discard, &options{seed: "winter0910", down: tc.down, stalled: tc.stalled})
		if err == nil || !strings.Contains(err.Error(), tc.host) {
			t.Errorf("-down %q -stalled %q: error %v, want one naming host %s",
				tc.down, tc.stalled, err, tc.host)
		}
	}
	ids := []string{"01", "02", "09"}
	if _, err := fleetSchedule("-down", "01=2-4,09=1-", ids); err != nil {
		t.Errorf("in-fleet schedule rejected: %v", err)
	}
}
