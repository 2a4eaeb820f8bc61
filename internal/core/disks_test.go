package core

import (
	"strings"
	"testing"

	"frostlab/internal/hardware"
	"frostlab/internal/monitor"
)

// TestDiskFailuresCascadeThroughLayouts inflates the drive hazard far
// beyond reality and checks that dead drives propagate correctly through
// each vendor's storage layout: single-disk hosts die with their drive,
// mirrors and parity sets degrade first.
func TestDiskFailuresCascadeThroughLayouts(t *testing.T) {
	cfg := shortConfig("disk-cascade")
	cfg.MonitorEvery = 0
	cfg.End = cfg.Start.AddDate(0, 0, 21)
	cfg.Disk.BasePerHour = 0.02 // a drive lives ~2 days: carnage, on purpose
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}

	var degradeEvents, lostEvents int
	for _, ev := range r.Events {
		switch ev.Kind {
		case EventDiskFailure:
			degradeEvents++
		case EventStorageLost:
			lostEvents++
		}
	}
	if degradeEvents == 0 || lostEvents == 0 {
		t.Fatalf("carnage config produced %d degrades, %d losses; want both", degradeEvents, lostEvents)
	}

	for id, h := range r.Hosts {
		layout := specForVendor(t, h.Vendor).Layout
		switch {
		case h.StorageLost:
			if layout.SurvivesDiskFailures(h.FailedDisks) {
				t.Errorf("host %s marked lost but layout %s survives %v", id, layout, h.FailedDisks)
			}
		case len(h.FailedDisks) > 0:
			if !layout.SurvivesDiskFailures(h.FailedDisks) {
				t.Errorf("host %s degraded with %v but layout %s cannot survive it", id, h.FailedDisks, layout)
			}
		}
		// A vendor B host can never be merely degraded: one disk is all
		// it has.
		if h.Vendor == hardware.VendorB && len(h.FailedDisks) > 0 && !h.StorageLost {
			t.Errorf("single-disk host %s degraded instead of lost", id)
		}
	}
}

func specForVendor(t *testing.T, v hardware.Vendor) hardware.Spec {
	t.Helper()
	s, err := hardware.SpecFor(v)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDefaultDiskHazardQuiet confirms the reference calibration: at
// default parameters the paper-horizon fleet should almost never lose a
// drive (the paper lost none).
func TestDefaultDiskHazardQuiet(t *testing.T) {
	cfg := shortConfig("disk-quiet")
	cfg.MonitorEvery = 0
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range r.Events {
		if ev.Kind == EventDiskFailure || ev.Kind == EventStorageLost {
			t.Errorf("unexpected drive event at default hazard: %+v", ev)
		}
	}
}

// TestLedgerCrossCheck verifies the §3.5 promise end to end: the counts
// the monitoring host derives from its *mirrored* md5sums.log agree with
// the host's own ground truth (up to the final uncollected round).
func TestLedgerCrossCheck(t *testing.T) {
	cfg := shortConfig("ledger-xcheck")
	cfg.End = cfg.Start.AddDate(0, 0, 3)
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"01", "02", "c01", "c02"} {
		rep, ok := r.Hosts[id]
		if !ok {
			t.Fatalf("host %s missing", id)
		}
		mirror := exp.Mirror(id).Get(monitor.MD5Log)
		sum, err := monitor.ParseLedger(mirror)
		if err != nil {
			t.Fatalf("host %s mirrored ledger: %v", id, err)
		}
		if sum.Errors != 0 {
			t.Errorf("host %s ledger has %d pipeline errors", id, sum.Errors)
		}
		total := sum.OK + sum.Bad + sum.Errors
		lag := int(rep.Cycles) - total
		if lag < 0 || lag > 3 {
			t.Errorf("host %s: mirror total %d vs host cycles %d (lag %d); want within one round",
				id, total, rep.Cycles, lag)
		}
		if sum.Bad != len(rep.BadHashes) && sum.Bad != len(rep.BadHashes)-1 {
			t.Errorf("host %s: mirror bad count %d vs host %d", id, sum.Bad, len(rep.BadHashes))
		}
	}
}

func TestEventLogMentionsLayouts(t *testing.T) {
	cfg := shortConfig("disk-labels")
	cfg.MonitorEvery = 0
	cfg.Disk.BasePerHour = 0.05
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	sawLayout := false
	for _, ev := range r.Events {
		if ev.Kind == EventDiskFailure || ev.Kind == EventStorageLost {
			if strings.Contains(ev.Detail, "mirror") || strings.Contains(ev.Detail, "single") || strings.Contains(ev.Detail, "raid") {
				sawLayout = true
			}
		}
	}
	if !sawLayout {
		t.Error("disk events never name the storage layout")
	}
}
