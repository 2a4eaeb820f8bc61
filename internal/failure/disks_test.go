package failure

import (
	"fmt"
	"testing"
	"time"

	"frostlab/internal/simkernel"
)

func TestDiskParamsValidation(t *testing.T) {
	if err := DefaultDiskParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := DefaultDiskParams()
	bad.BasePerHour = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative base hazard accepted")
	}
}

func TestStepDiskValidation(t *testing.T) {
	e := newEngine(t, "disk-validate")
	d, err := e.RegisterDisk("01/0", DefaultDiskParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepDisk(t0, 0, d, 30); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := e.StepDisk(t0, time.Hour, nil, 30); err == nil {
		t.Error("unregistered disk accepted")
	}
}

// TestRegisterDiskRefusesInvalidParams: the hazard parameters are checked
// once, when the drive is registered, and every negative field is refused
// there, so no drive with invalid parameters is ever stepped.
func TestRegisterDiskRefusesInvalidParams(t *testing.T) {
	e := newEngine(t, "disk-validate")
	for _, spoil := range []func(*DiskParams){
		func(p *DiskParams) { p.BasePerHour = -1 },
		func(p *DiskParams) { p.HotPerDegree = -1 },
		func(p *DiskParams) { p.ColdPerDegree = -0.5 },
	} {
		bad := DefaultDiskParams()
		spoil(&bad)
		if d, err := e.RegisterDisk("01/0", bad); err == nil || d != nil {
			t.Errorf("invalid params %+v accepted", bad)
		}
	}
}

func TestDisksRarelyDieInThreeMonths(t *testing.T) {
	// The paper's fleet (~35k disk-hours) saw zero drive deaths; the
	// default hazard must make that the typical outcome.
	e := newEngine(t, "disk-rare")
	deaths := 0
	p := DefaultDiskParams()
	for d := 0; d < 42; d++ { // the fleet's ~42 drives
		disk, err := e.RegisterDisk(fmt.Sprintf("h/%d", d), p)
		if err != nil {
			t.Fatal(err)
		}
		for at := t0; at.Before(t0.AddDate(0, 3, 0)); at = at.Add(time.Hour) {
			ev, err := e.StepDisk(at, time.Hour, disk, 30)
			if err != nil {
				t.Fatal(err)
			}
			if ev != nil {
				deaths++
				break
			}
		}
	}
	if deaths > 2 {
		t.Errorf("%d drive deaths in a fleet-quarter; paper saw 0, expectation ≈ 0.2", deaths)
	}
}

func TestHotDrivesDieFaster(t *testing.T) {
	p := DefaultDiskParams()
	benign := p.HazardPerHour(30)
	hot := p.HazardPerHour(60)
	if hot <= benign {
		t.Errorf("hot hazard %v not above benign %v", hot, benign)
	}
	// Cold adds only a mild penalty — §4's finding extends to drives.
	cold := p.HazardPerHour(-20)
	if cold <= benign {
		t.Errorf("deep-cold hazard %v not above benign %v", cold, benign)
	}
	if cold >= hot {
		t.Errorf("cold penalty %v should stay below heat penalty %v", cold, hot)
	}
}

func TestStepDiskLogsHardFailure(t *testing.T) {
	// Inflate the hazard so a death happens promptly, then check the log.
	e := newEngine(t, "disk-log")
	p := DefaultDiskParams()
	p.BasePerHour = 0.5
	d, err := e.RegisterDisk("15/0", p)
	if err != nil {
		t.Fatal(err)
	}
	var got *Event
	for at := t0; at.Before(t0.Add(100 * time.Hour)); at = at.Add(time.Hour) {
		ev, err := e.StepDisk(at, time.Hour, d, 35)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			got = ev
			break
		}
	}
	if got == nil {
		t.Fatal("no death at 0.5/h hazard over 100h")
	}
	if got.Kind != Hard || got.Component != DiskDrive {
		t.Errorf("event %+v, want hard disk failure", got)
	}
	if evs := eventsFor(e, "15/0"); len(evs) != 1 {
		t.Errorf("log has %d events for the drive", len(evs))
	}
}

func TestStepDiskDeterministic(t *testing.T) {
	run := func() int {
		e := NewEngine(simkernel.NewRNG("disk-det"))
		p := DefaultDiskParams()
		p.BasePerHour = 0.05
		d, err := e.RegisterDisk("x/0", p)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for at := t0; at.Before(t0.Add(200 * time.Hour)); at = at.Add(time.Hour) {
			if ev, _ := e.StepDisk(at, time.Hour, d, 30); ev != nil {
				n++
			}
		}
		return n
	}
	if a, b := run(), run(); a != b {
		t.Errorf("disk sampling not deterministic: %d vs %d", a, b)
	}
}
