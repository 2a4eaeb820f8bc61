package core

import (
	"bytes"
	"math"
	"strconv"
	"testing"
	"time"

	"frostlab/internal/control"
	"frostlab/internal/econ"
	"frostlab/internal/units"
)

// The reference fleet encoder: the DTOs WriteFleetJSON used to build and
// hand to json.Encoder. WriteFleetJSON must write exactly what
// encodeReference makes of fleetToDTO.

func ffmt(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func ffmts(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = ffmt(v)
	}
	return out
}

type meterDTO struct {
	ITEnergyKWh   string `json:"it_energy_kwh"`
	VentEnergyKWh string `json:"vent_energy_kwh"`
	MigrationKWh  string `json:"migration_energy_kwh"`
	CostUSD       string `json:"cost_usd"`
	CarbonG       string `json:"carbon_g"`
	CyclesDone    string `json:"cycles_done"`
	CyclesShed    string `json:"cycles_shed"`
	CyclesIn      string `json:"cycles_in"`
	CyclesOut     string `json:"cycles_out"`
}

func meterToDTO(m econ.Meter) meterDTO {
	return meterDTO{
		ITEnergyKWh:   ffmt(float64(m.ITEnergy)),
		VentEnergyKWh: ffmt(float64(m.VentEnergy)),
		MigrationKWh:  ffmt(float64(m.MigrationEnergy)),
		CostUSD:       ffmt(m.CostUSD),
		CarbonG:       ffmt(m.CarbonG),
		CyclesDone:    ffmt(m.CyclesDone),
		CyclesShed:    ffmt(m.CyclesShed),
		CyclesIn:      ffmt(m.CyclesIn),
		CyclesOut:     ffmt(m.CyclesOut),
	}
}

type siteDTO struct {
	Name          string   `json:"name"`
	Climate       string   `json:"climate"`
	Tariff        string   `json:"tariff"`
	Hosts         int      `json:"hosts"`
	Meter         meterDTO `json:"meter"`
	EnvelopeTicks int      `json:"envelope_ticks"`
	GuardTrips    int      `json:"guard_trips"`
	EnvOverride   int      `json:"envelope_override_ticks"`
	Intake        []string `json:"intake_c"`
	Damper        []string `json:"damper"`
	Assigned      []string `json:"assigned_cycles"`
	Price         []string `json:"price_usd_kwh"`
}

type fleetDTO struct {
	Version  int       `json:"version"`
	Policy   string    `json:"policy"`
	Seed     string    `json:"seed"`
	Start    string    `json:"start"`
	End      string    `json:"end"`
	StepSec  int64     `json:"step_seconds"`
	Ticks    int       `json:"ticks"`
	Demanded string    `json:"demanded_cycles"`
	Shed     string    `json:"shed_cycles"`
	Migrated string    `json:"migrated_cycles"`
	Total    meterDTO  `json:"total"`
	Sites    []siteDTO `json:"sites"`
}

func fleetToDTO(r *FleetResult) fleetDTO {
	d := fleetDTO{
		Version:  fleetFileVersion,
		Policy:   r.Policy,
		Seed:     r.Seed,
		Start:    r.Start.UTC().Format(time.RFC3339Nano),
		End:      r.End.UTC().Format(time.RFC3339Nano),
		StepSec:  int64(r.Step / time.Second),
		Ticks:    r.Ticks,
		Demanded: ffmt(r.Demanded),
		Shed:     ffmt(r.Shed),
		Migrated: ffmt(r.Migrated),
		Total:    meterToDTO(r.TotalMeter),
	}
	for i := range r.Sites {
		s := &r.Sites[i]
		d.Sites = append(d.Sites, siteDTO{
			Name:          s.Name,
			Climate:       s.Climate,
			Tariff:        s.Tariff,
			Hosts:         s.Hosts,
			Meter:         meterToDTO(s.Meter),
			EnvelopeTicks: s.EnvelopeTicks,
			GuardTrips:    s.ControlStats.GuardTrips,
			EnvOverride:   s.ControlStats.EnvelopeTicks,
			Intake:        ffmts(s.Intake),
			Damper:        ffmts(s.Damper),
			Assigned:      ffmts(s.Assigned),
			Price:         ffmts(s.Price),
		})
	}
	return d
}

// checkFleetJSON fails t unless WriteFleetJSON writes the reference
// encoder's bytes for r.
func checkFleetJSON(t *testing.T, r *FleetResult) {
	t.Helper()
	want, err := encodeReference(fleetToDTO(r))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFleetJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(buf.Bytes(), want); i >= 0 {
		t.Fatalf("WriteFleetJSON differs at byte %d of %d/%d:\n got: …%q…\nwant: …%q…",
			i, buf.Len(), len(want), around(buf.Bytes(), i), around(want, i))
	}
}

// syntheticFleet builds a two-site FleetResult whose every float is v,
// whose every name is str, and whose times are at.
func syntheticFleet(str string, v float64, at time.Time, step time.Duration, ticks int) *FleetResult {
	trace := make([]float64, ticks)
	for i := range trace {
		trace[i] = v * float64(i)
	}
	m := econ.Meter{
		ITEnergy: units.KilowattHours(v), VentEnergy: units.KilowattHours(-v), MigrationEnergy: 1e21,
		CostUSD: v, CarbonG: 1e-7, CyclesDone: v, CyclesShed: math.Copysign(0, -1), CyclesIn: 5e-324, CyclesOut: v / 3,
	}
	return &FleetResult{
		Policy: str, Seed: str, Start: at, End: at.Add(step * time.Duration(ticks)), Step: step, Ticks: ticks,
		Demanded: v, Shed: -v, Migrated: v * 1e300,
		Sites: []SiteResult{
			{Name: str, Climate: str, Tariff: str, Hosts: ticks, Meter: m,
				ControlStats: control.Stats{GuardTrips: 3, EnvelopeTicks: -1}, EnvelopeTicks: 7,
				Intake: trace, Damper: nil, Assigned: []float64{}, Price: []float64{v}},
			{Name: "second", Intake: trace[:min(1, ticks)]},
		},
		TotalMeter: m,
	}
}

// TestWriteFleetJSONMatchesEncoder requires WriteFleetJSON to write, byte
// for byte, what json.Encoder with a one-space indent writes for the
// fleet DTOs, on a real run and on the edge cases of the schema.
func TestWriteFleetJSONMatchesEncoder(t *testing.T) {
	epoch := time.Date(2010, 2, 12, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		r    func(t *testing.T) *FleetResult
	}{
		{"run", func(t *testing.T) *FleetResult {
			e, err := NewMultiSite(shortMultiSiteConfig("follow-green"))
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{"nil-sites", func(*testing.T) *FleetResult { return &FleetResult{Policy: "static", Start: epoch, End: epoch} }},
		{"empty-sites", func(*testing.T) *FleetResult { return &FleetResult{Sites: []SiteResult{}} }},
		{"empty-site", func(*testing.T) *FleetResult { return &FleetResult{Sites: []SiteResult{{}}} }},
		{"zero-times", func(*testing.T) *FleetResult { return syntheticFleet("z", 1.5, time.Time{}, 0, 0) }},
		{"nan", func(*testing.T) *FleetResult { return syntheticFleet("n", math.NaN(), epoch, time.Minute, 4) }},
		{"+inf", func(*testing.T) *FleetResult { return syntheticFleet("i", math.Inf(1), epoch, time.Minute, 4) }},
		{"-inf", func(*testing.T) *FleetResult { return syntheticFleet("i", math.Inf(-1), epoch, time.Minute, 4) }},
		{"html", func(*testing.T) *FleetResult { return syntheticFleet("<a&b>", 0.1, epoch, time.Second, 3) }},
		{"quotes", func(*testing.T) *FleetResult { return syntheticFleet(`say "hi" \ bye`, 2, epoch, time.Hour, 2) }},
		{"non-ascii", func(*testing.T) *FleetResult {
			return syntheticFleet("Sodankylä °C \u2028\xff\x01", 1e-7, epoch, 1500*time.Millisecond, 5)
		}},
		{"zone", func(*testing.T) *FleetResult {
			return syntheticFleet("tz", 7, epoch.In(time.FixedZone("", -5*3600)).Add(123456789), -time.Minute, 2)
		}},
		{"far-years", func(*testing.T) *FleetResult {
			r := syntheticFleet("y", 7, time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), time.Minute, 2)
			r.End = time.Date(12000, 1, 1, 0, 0, 0, 0, time.UTC)
			return r
		}},
		{"long-trace", func(*testing.T) *FleetResult { return syntheticFleet("long", 1/3.0, epoch, time.Minute, 20000) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkFleetJSON(t, tc.r(t)) })
	}
}

// FuzzWriteFleetJSON holds WriteFleetJSON to the reference encoder over
// arbitrary names, float values, times, zones, steps and trace lengths.
func FuzzWriteFleetJSON(f *testing.F) {
	for _, s := range []string{"", "helsinki", "a<b", "a>b", "a&b", `say "hi"`, `back\slash`, "\x00\x1f\x7f", "°C", "\xff\xfe", "line\u2028sep\u2029"} {
		f.Add(s, 1.5, int64(1265932800), int32(0), int64(time.Minute), uint8(3))
	}
	for _, v := range []float64{math.Copysign(0, -1), 1e-7, 1e21, 5e-324, math.NaN(), math.Inf(1), math.Inf(-1), 123456789.125} {
		f.Add("v", v, int64(-62135596800), int32(3600), int64(1), uint8(2))
	}
	f.Add("y", 1.0, int64(253402300800), int32(-86399), int64(-1500000000), uint8(0))
	f.Fuzz(func(t *testing.T, str string, v float64, unix int64, zone int32, step int64, ticks uint8) {
		at := time.Unix(unix, 0).In(time.FixedZone("", int(zone)))
		checkFleetJSON(t, syntheticFleet(str, v, at, time.Duration(step), int(ticks)))
	})
}

// TestFleetDigestAllocs bounds the allocations of FleetResult.Digest by a
// constant: a run four times longer allocates no more, because the
// document streams through one reused buffer into the hash.
func TestFleetDigestAllocs(t *testing.T) {
	const bound = 8
	for _, days := range []int{2, 8} {
		cfg := shortMultiSiteConfig("follow-cold")
		cfg.End = cfg.Start.AddDate(0, 0, days)
		e, err := NewMultiSite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() { _ = r.Digest() })
		if allocs > bound {
			t.Errorf("%d days (%d ticks): Digest allocates %.0f objects, want ≤ %d", days, r.Ticks, allocs, bound)
		}
		t.Logf("%d days (%d ticks): Digest allocates %.0f objects", days, r.Ticks, allocs)
	}
}
