package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"frostlab/internal/hardware"
	"frostlab/internal/monitor"
	"frostlab/internal/thermal"
)

// shortConfig is a fast experiment window for unit tests: the first week
// of the normal phase.
func shortConfig(seed string) Config {
	cfg := DefaultConfig(seed)
	cfg.End = cfg.Start.AddDate(0, 0, 7)
	return cfg
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig("winter0910").Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig("")
	if err := bad.Validate(); err == nil {
		t.Error("empty seed accepted")
	}
	bad = DefaultConfig("s")
	bad.End = bad.Start
	if err := bad.Validate(); err == nil {
		t.Error("empty window accepted")
	}
}

func TestShortRunBasics(t *testing.T) {
	exp, err := New(shortConfig("core-short"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Station recorded the whole week at 10-minute cadence.
	wantSamples := 7 * 24 * 6
	if n := r.OutsideTemp.Len(); n < wantSamples-2 || n > wantSamples+2 {
		t.Errorf("outside samples %d, want ≈ %d", n, wantSamples)
	}
	// February in Helsinki: the mean must be well below zero.
	sum, err := r.OutsideTemp.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mean > -2 || sum.Mean < -25 {
		t.Errorf("outside mean %.1f°C implausible", sum.Mean)
	}
	// Hosts 01 and 02 install on day one and cycle every 10 minutes.
	rep, ok := r.Hosts["01"]
	if !ok {
		t.Fatal("host 01 missing from results")
	}
	if rep.Cycles < 900 || rep.Cycles > 1100 {
		t.Errorf("host 01 cycles %d, want ≈ 1008 in a week", rep.Cycles)
	}
	// Hosts installed later than the window must be absent.
	if _, ok := r.Hosts["18"]; ok {
		t.Error("host 18 (installed Mar 13) present in a Feb 19-26 run")
	}
	// The basement twin runs too.
	if _, ok := r.Hosts["c01"]; !ok {
		t.Error("control twin c01 missing")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Results {
		exp, err := New(shortConfig("det-seed"))
		if err != nil {
			t.Fatal(err)
		}
		r, err := exp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.TotalCycles != b.TotalCycles {
		t.Errorf("cycles differ: %d vs %d", a.TotalCycles, b.TotalCycles)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	at, _ := a.OutsideTemp.Summarize()
	bt, _ := b.OutsideTemp.Summarize()
	if at.Mean != bt.Mean || at.Min != bt.Min {
		t.Error("weather series differ across identical seeds")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	ra, err := New(shortConfig("seed-a"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := ra.Run()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := New(shortConfig("seed-b"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := rb.Run()
	if err != nil {
		t.Fatal(err)
	}
	as, _ := a.OutsideTemp.Summarize()
	bs, _ := b.OutsideTemp.Summarize()
	if as.Mean == bs.Mean {
		t.Error("different seeds produced identical weather")
	}
}

func TestInstallTimelineRespected(t *testing.T) {
	cfg := DefaultConfig("timeline")
	cfg.End = cfg.Start.AddDate(0, 0, 28) // through Mar 19
	cfg.MonitorEvery = 0                  // speed: no monitoring needed here
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	installs := map[string]time.Time{}
	for _, ev := range r.Events {
		if ev.Kind == EventInstall {
			installs[ev.Subject] = ev.At
		}
	}
	fleet, err := hardware.ReferenceFleet()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range fleet.All() {
		if h.InstalledAt.After(cfg.End) {
			if _, ok := installs[h.ID]; ok {
				t.Errorf("host %s installed beyond the window", h.ID)
			}
			continue
		}
		at, ok := installs[h.ID]
		if !ok {
			t.Errorf("host %s never installed", h.ID)
			continue
		}
		if !at.Equal(h.InstalledAt) {
			t.Errorf("host %s installed %v, want %v (Fig. 2)", h.ID, at, h.InstalledAt)
		}
	}
	// Host 19 (Mar 17) is within this window and must be present.
	if _, ok := installs["19"]; !ok {
		t.Error("replacement host 19 not installed by Mar 19")
	}
}

func TestModificationsApplied(t *testing.T) {
	cfg := DefaultConfig("mods")
	cfg.End = cfg.Start.AddDate(0, 0, 10) // past R (Feb 26)
	cfg.MonitorEvery = 0
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Modifications[thermal.ReflectiveFoil]; !ok {
		t.Error("R not applied by Mar 1")
	}
	if _, ok := r.Modifications[thermal.InstallFan]; ok {
		t.Error("F applied before its Mar 20 date")
	}
	found := false
	for _, ev := range r.Events {
		if ev.Kind == EventModification && strings.Contains(ev.Detail, "R applied") {
			found = true
		}
	}
	if !found {
		t.Error("modification event not logged")
	}
}

func TestMonitoringMirrorsLogs(t *testing.T) {
	cfg := shortConfig("mirror")
	cfg.End = cfg.Start.AddDate(0, 0, 2)
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.MonitorRounds == 0 {
		t.Fatal("no monitoring rounds ran")
	}
	store, err := exp.hostStore("01")
	if err != nil {
		t.Fatal(err)
	}
	mirror := exp.Mirror("01")
	// The mirror lags the live log by at most one collection round; both
	// must be non-empty and the mirror a prefix of the live log.
	live := store.Get(monitor.MD5Log)
	mirrored := mirror.Get(monitor.MD5Log)
	if len(live) == 0 || len(mirrored) == 0 {
		t.Fatalf("logs empty: live %d, mirror %d", len(live), len(mirrored))
	}
	if !strings.HasPrefix(string(live), string(mirrored)) {
		t.Error("mirror is not a prefix of the live log")
	}
	if r.MonitorTotalBytes == 0 {
		t.Error("monitoring moved no bytes")
	}
	// Delta sync must beat full copies by a wide margin across rounds.
	if r.MonitorLiteralBytes >= r.MonitorTotalBytes/2 {
		t.Errorf("literal bytes %d vs corpus %d: delta sync ineffective",
			r.MonitorLiteralBytes, r.MonitorTotalBytes)
	}
	// The gap ledger accounts for every host-round of the run.
	if len(r.MonitorGaps) == 0 {
		t.Fatal("no gap accounting in results")
	}
	if r.MonitorCoverage <= 0 || r.MonitorCoverage > 1 {
		t.Errorf("coverage = %v, want (0, 1]", r.MonitorCoverage)
	}
	for _, hg := range r.MonitorGaps {
		if hg.Rounds() == 0 {
			t.Errorf("host %s has zero accounted rounds", hg.HostID)
		}
	}
	if exp.GapLedger().Rounds() == 0 {
		t.Error("ledger recorded no rounds")
	}
}

func TestSensorLogsContainCPUReadings(t *testing.T) {
	cfg := shortConfig("sensorlog")
	cfg.End = cfg.Start.AddDate(0, 0, 1)
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(); err != nil {
		t.Fatal(err)
	}
	store, err := exp.hostStore("02")
	if err != nil {
		t.Fatal(err)
	}
	log := string(store.Get(monitor.SensorLog))
	if !strings.Contains(log, "cpu=") {
		t.Errorf("sensor log has no cpu readings: %q", log[:min(len(log), 200)])
	}
}

func TestTentCPUsColderThanBasement(t *testing.T) {
	cfg := shortConfig("cpu-compare")
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	tent, ok1 := r.Hosts["01"]
	ctrl, ok2 := r.Hosts["c01"]
	if !ok1 || !ok2 {
		t.Fatal("pair 01/c01 missing")
	}
	if tent.CPUMin >= ctrl.CPUMin {
		t.Errorf("tent CPU min %v not colder than basement %v", tent.CPUMin, ctrl.CPUMin)
	}
	// Basement CPUs sit in a 21 °C room: comfortably warm.
	if ctrl.CPUMin < 25 {
		t.Errorf("basement CPU min %v implausibly cold", ctrl.CPUMin)
	}
}

func TestHostStoreUnknown(t *testing.T) {
	exp, err := New(shortConfig("unknown"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.hostStore("nope"); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestPrototypeWeekend(t *testing.T) {
	res, err := RunPrototype("winter0910")
	if err != nil {
		t.Fatal(err)
	}
	// Paper §3.1: minimum −10.2 °C, average −9.2 °C, CPU as low as −4 °C,
	// survived the whole weekend.
	if !res.Survived {
		t.Error("prototype did not survive")
	}
	if res.OutsideMin > -8 || res.OutsideMin < -17 {
		t.Errorf("weekend outside min %v, want ≈ -10.2", res.OutsideMin)
	}
	if res.OutsideMean > -6 || res.OutsideMean < -13 {
		t.Errorf("weekend outside mean %v, want ≈ -9.2", res.OutsideMean)
	}
	if res.CPUMin > 3 || res.CPUMin < -12 {
		t.Errorf("CPU min %v, want ≈ -4", res.CPUMin)
	}
	// ~64 hours of 10-minute cycles.
	if res.Cycles < 350 || res.Cycles > 420 {
		t.Errorf("prototype cycles %d, want ≈ 390", res.Cycles)
	}
	if res.OutsideTemp.Len() == 0 || res.CPUTemp.Len() == 0 {
		t.Error("prototype series empty")
	}
}

func TestPrototypeValidation(t *testing.T) {
	if _, err := RunPrototype(""); err == nil {
		t.Error("empty seed accepted")
	}
}

func TestPrototypeDeterminism(t *testing.T) {
	a, err := RunPrototype("same")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPrototype("same")
	if err != nil {
		t.Fatal(err)
	}
	if a.OutsideMin != b.OutsideMin || a.CPUMin != b.CPUMin || a.Cycles != b.Cycles {
		t.Error("prototype runs with the same seed differ")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestCyclesAccumulateAcrossFleet(t *testing.T) {
	cfg := shortConfig("cycles")
	cfg.MonitorEvery = 0
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Pairs 01/02 run all 7 days, 03 joins Feb 24 and 06 Feb 25 (with
	// twins): ≈ (4*7 + 2*2 + 2*1) days * 144 cycles ≈ 4900.
	if r.TotalCycles < 4500 || r.TotalCycles > 5300 {
		t.Errorf("total cycles %d, want ≈ 4900", r.TotalCycles)
	}
	if r.PagesTouched != int64(r.TotalCycles)*PaperPagesPerCycle {
		t.Error("page accounting inconsistent")
	}
}

func TestEventsOrdered(t *testing.T) {
	cfg := shortConfig("order")
	cfg.MonitorEvery = 0
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.Events); i++ {
		if r.Events[i].At.Before(r.Events[i-1].At) {
			t.Fatal("event log not time-ordered")
		}
	}
}

func TestFailureRatesWellFormed(t *testing.T) {
	cfg := shortConfig("rates")
	cfg.MonitorEvery = 0
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	// By Feb 26 hosts 01, 02, 03, 06 (and twins) are installed.
	if r.TentHostFailureRate.Trials != 4 || r.ControlHostFailureRate.Trials != 4 {
		t.Errorf("week-one arms: tent %d, control %d hosts, want 4/4",
			r.TentHostFailureRate.Trials, r.ControlHostFailureRate.Trials)
	}
	if v := r.TentHostFailureRate.Value(); math.IsNaN(v) {
		t.Error("tent rate NaN")
	}
}

func BenchmarkShortRunNoMonitoring(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := shortConfig("bench")
		cfg.MonitorEvery = 0
		exp, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exp.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// hostStore exposes a host's own log store. It has no caller in the
// program; it stays beside the tests that use it.
func (e *Experiment) hostStore(hostID string) (*monitor.FileStore, error) {
	i, ok := e.byID[hostID]
	if !ok {
		return nil, fmt.Errorf("core: unknown host %q", hostID)
	}
	return e.hosts[i].store, nil
}
