package control

import (
	"testing"

	"frostlab/internal/climate"
	"frostlab/internal/units"
	"frostlab/internal/weather"
)

// These tests drive the closed-loop controller with the scenario library's
// extreme families — desert 45 °C intakes and monsoon saturation — and
// assert the safety supervisor's ordering guarantee: the override engages
// on the same tick a violation appears (temperature band) or before the
// violation can physically occur (condensation), never after.

// TestDesertEnvelopeOverride runs the controller through three weeks of
// desert afternoons. Every tick whose intake exceeds the envelope's
// temperature ceiling must carry the envelope override (damper forced
// toward fully open), the damper must respect its slew limit throughout,
// and sustained 40 °C+ operation must escalate the duty cycler to
// load-shedding.
func TestDesertEnvelopeOverride(t *testing.T) {
	fam, err := climate.Lookup("desert")
	if err != nil {
		t.Fatal(err)
	}
	m, err := fam.Model(weather.ExperimentEpoch, "desert-ctl")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var hotTicks, overrideOnHot int
	sawShed := false
	saw45 := false
	prevDamper := c.Damper()
	end := weather.ExperimentEpoch.AddDate(0, 0, 21)
	for at := weather.ExperimentEpoch; at.Before(end); at = at.Add(cfg.Every) {
		out := m.At(at)
		// Desert tent runs a few degrees over ambient from its own
		// dissipation; dry air passes through unchanged.
		in := Inputs{
			Now:      at,
			Inside:   out.Temp + 3,
			InsideRH: out.RH,
			Outside:  out.Temp,
			Surface:  out.Temp + 8,
		}
		o := c.Step(in)

		if in.Inside > units.FrostAllowable.TempHigh {
			hotTicks++
			if o.Envelope {
				overrideOnHot++
			}
			if in.Inside >= 45 {
				saw45 = true
			}
		}
		if o.Duty == DutyThrottle || o.Duty == DutyMigrate {
			sawShed = true
		}
		if d := o.Damper - prevDamper; d > slew+1e-12 || d < -slew-1e-12 {
			t.Fatalf("damper jumped %v in one tick, slew limit %v", d, slew)
		}
		prevDamper = o.Damper
	}
	if hotTicks == 0 {
		t.Fatal("desert run never exceeded the envelope ceiling; scenario too mild")
	}
	if !saw45 {
		t.Fatal("desert run never reached a 45 °C intake")
	}
	if overrideOnHot != hotTicks {
		t.Fatalf("envelope override missed %d of %d over-temperature ticks", hotTicks-overrideOnHot, hotTicks)
	}
	if !sawShed {
		t.Fatal("sustained desert heat never escalated duty cycling to load shedding")
	}
}

// TestMonsoonCondensationGuard runs the controller through the monsoon
// onset with a powered surface riding close to the intake air. The
// condensation guard must trip while a positive dew-point margin remains
// (i.e. strictly before water can form), every condensing-risk tick must
// have the guard latched, and the guard must drag the damper down to its
// cap at slew speed.
func TestMonsoonCondensationGuard(t *testing.T) {
	fam, err := climate.Lookup("monsoon")
	if err != nil {
		t.Fatal(err)
	}
	m, err := fam.Model(weather.ExperimentEpoch, "monsoon-ctl")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	guardTripped := false
	marginAtFirstTrip := units.Celsius(999)
	end := weather.ExperimentEpoch.AddDate(0, 0, 35)
	for at := weather.ExperimentEpoch; at.Before(end); at = at.Add(cfg.Every) {
		out := m.At(at)
		// A monsoon tent runs barely above ambient: overcast skies, burst
		// winds washing the envelope. Translate the (near-saturated)
		// moisture load to the slightly warmer inside air.
		inside := out.Temp + 0.5
		rh := units.RelHumidityAt(out.Temp, out.RH, inside)
		surface := inside + 0.5 // coolest powered case barely above intake
		in := Inputs{Now: at, Inside: inside, InsideRH: rh, Outside: out.Temp, Surface: surface}

		margin, err := units.DewPointMargin(inside, rh, surface)
		if err != nil {
			t.Fatal(err)
		}
		o := c.Step(in)

		if o.Guard && !guardTripped {
			guardTripped = true
			marginAtFirstTrip = margin
		}
		if margin < 0 && !o.Guard {
			t.Fatalf("condensing at %v (margin %v) with no guard active", at, margin)
		}
		if o.Guard && o.Command > guardPosition+1e-12 && !o.Envelope {
			t.Fatalf("guard active but command %v above cap %v", o.Command, guardPosition)
		}
	}
	if !guardTripped {
		t.Fatal("monsoon saturation never tripped the condensation guard; scenario too mild")
	}
	if marginAtFirstTrip <= 0 {
		t.Fatalf("guard tripped only after condensation began (margin %v); must trip while margin is positive", marginAtFirstTrip)
	}
	if marginAtFirstTrip > minDewMargin {
		t.Fatalf("guard tripped at margin %v, above the configured threshold %v", marginAtFirstTrip, minDewMargin)
	}
	if s := c.Stats(); s.GuardTrips == 0 || s.GuardTicks < s.GuardTrips {
		t.Fatalf("guard accounting inconsistent: %+v", s)
	}
}
