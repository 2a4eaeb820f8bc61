package chaos

import (
	"math"
	"testing"
)

func TestActuatorSpecValidate(t *testing.T) {
	good := []ActuatorSpec{
		{Seed: "s"},
		{Seed: "s", PStick: 0.1, PLag: 0.2, StickTicks: 5},
		{Seed: "s", Stuck: map[string][]RoundRange{"damper": {{From: 3, To: 9}}}},
		{Seed: "s", Lagged: map[string][]RoundRange{"damper": {{From: 1}}}}, // open end
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
	bad := []ActuatorSpec{
		{Seed: "s", PStick: -0.1},
		{Seed: "s", PStick: math.NaN()},
		{Seed: "s", PLag: math.NaN()},
		{Seed: "s", PStick: 0.7, PLag: 0.7},
		{Seed: "s", Stuck: map[string][]RoundRange{"damper": {{From: 0, To: 2}}}},
		{Seed: "s", Lagged: map[string][]RoundRange{"damper": {{From: 5, To: 2}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad case %d validated", i)
		}
	}
}

func TestActuatorScriptedWindows(t *testing.T) {
	in, err := NewActuator(ActuatorSpec{
		Seed:   "seed",
		Stuck:  map[string][]RoundRange{"damper": {{From: 5, To: 8}}},
		Lagged: map[string][]RoundRange{"damper": {{From: 12, To: 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick <= 20; tick++ {
		f := in.FaultFor("damper", tick)
		var want ActuatorKind
		switch {
		case tick >= 5 && tick <= 8:
			want = ActStuck
		case tick >= 12:
			want = ActLag
		default:
			want = ActNone
		}
		if f.Kind != want {
			t.Errorf("tick %d: fault %v, want %v", tick, f.Kind, want)
		}
	}
}

func TestActuatorFaultSequenceDeterministic(t *testing.T) {
	draw := func() []ActuatorKind {
		in, err := NewActuator(ActuatorSpec{
			Seed: "det", PStick: 0.1, PLag: 0.15, StickTicks: 3, LagTicks: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		in.Register("damper")
		var ks []ActuatorKind
		for tick := 1; tick <= 400; tick++ {
			ks = append(ks, in.FaultFor("damper", tick).Kind)
		}
		return ks
	}
	a, b := draw(), draw()
	sawStuck, sawLag := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d: %v != %v across identical replays", i+1, a[i], b[i])
		}
		sawStuck = sawStuck || a[i] == ActStuck
		sawLag = sawLag || a[i] == ActLag
	}
	if !sawStuck || !sawLag {
		t.Fatalf("400 ticks at 10%%/15%% onset drew no faults (stuck %v, lag %v)", sawStuck, sawLag)
	}
}

func TestActuatorFaultPersistence(t *testing.T) {
	in, err := NewActuator(ActuatorSpec{Seed: "persist", PStick: 0.5, StickTicks: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Once a fault starts it runs StickTicks ticks; at 50% onset a fresh
	// fault may chain immediately, so runs are multiples of StickTicks.
	run := 0
	for tick := 1; tick <= 200; tick++ {
		f := in.FaultFor("damper", tick)
		if f.Kind == ActStuck {
			run++
			continue
		}
		if run%4 != 0 {
			t.Fatalf("fault run of %d ticks, want a multiple of 4", run)
		}
		run = 0
	}
}

func TestActuatorsDrawIndependentStreams(t *testing.T) {
	in, err := NewActuator(ActuatorSpec{Seed: "indep", PStick: 0.3, StickTicks: 1})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for tick := 1; tick <= 100; tick++ {
		a := in.FaultFor("damper", tick).Kind
		b := in.FaultFor("fan", tick).Kind
		if a != b {
			same = false
		}
	}
	if same {
		t.Fatal("two actuators drew identical 100-tick fault sequences; streams not independent")
	}
}
