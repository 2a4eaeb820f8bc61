package core

import (
	"crypto/md5"
	"encoding/hex"
	"testing"

	"frostlab/internal/chaos"
	"frostlab/internal/control"
)

// controlledGoldenMD5 pins the SaveResults bytes of a short closed-loop
// run at ReferenceSeed with a scripted stuck-damper window, so the PID
// law, the supervisor, the duty cycler and the ladder fallback all leave
// their mark on the archive.
const controlledGoldenMD5 = "b276e5d7585931eefd01139e63936ed4"

func TestControlledRunGolden(t *testing.T) {
	cfg := DefaultConfig(ReferenceSeed)
	cfg.MonitorEvery = 0
	cfg.End = cfg.Start.AddDate(0, 0, 12)
	cc := control.DefaultConfig()
	// A deep setpoint makes the loop demand an open damper, so the
	// stuck-at-closed window produces command/position mismatches.
	cc.Setpoint = -5
	cfg.Control = &cc
	cfg.ActuatorChaos = &chaos.ActuatorSpec{
		Stuck: map[string][]chaos.RoundRange{
			damperActuator: {{From: 2601, To: 3000}},
		},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Control.Stats; s.FallbackTicks == 0 || s.StuckTicks == 0 {
		t.Fatalf("stuck window left fallback %d / stuck %d ticks, want both > 0",
			s.FallbackTicks, s.StuckTicks)
	}
	h := md5.New()
	if err := SaveResults(h, r); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != controlledGoldenMD5 {
		t.Fatalf("closed-loop digest %s, want %s", got, controlledGoldenMD5)
	}
}
