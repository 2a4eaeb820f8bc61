package core

import (
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"time"

	"frostlab/internal/control"
	"frostlab/internal/econ"
)

// Results of a multi-site run. The schema is deliberately flat so the
// serializer below can render it canonically: the md5 of the canonical
// JSON is the run's replay digest, the quantity the determinism gate
// (double run, any GOMAXPROCS) compares.

// SiteResult is one site's share of a multi-site run.
type SiteResult struct {
	Name    string
	Climate string
	Tariff  string
	Hosts   int
	// Meter is the site's full economic accounting.
	Meter econ.Meter
	// ControlStats is the site thermal controller's accounting.
	ControlStats control.Stats
	// EnvelopeTicks counts dispatch ticks the intake spent inside the
	// allowable envelope.
	EnvelopeTicks int
	// Per-tick traces, indexed by dispatch tick (time = Start + i*Step).
	Intake   []float64 // intake temperature, °C
	Damper   []float64 // damper position
	Assigned []float64 // work-cycles assigned
	Price    []float64 // electricity price, $/kWh
}

// FleetResult is the outcome of one multi-site run.
type FleetResult struct {
	Policy   string
	Seed     string
	Start    time.Time
	End      time.Time
	Step     time.Duration
	Ticks    int
	Demanded float64 // total work-cycles demanded over the run
	Shed     float64 // demanded cycles no site could take
	Migrated float64 // cycles moved between sites (paired flow)
	Sites    []SiteResult
	// TotalMeter is the fleet roll-up of every site meter.
	TotalMeter econ.Meter
}

// CostPerCycle returns the fleet's $ per completed work-cycle.
func (r *FleetResult) CostPerCycle() float64 { return r.TotalMeter.CostPerCycle() }

// CarbonPerCycle returns the fleet's gCO₂ per completed work-cycle.
func (r *FleetResult) CarbonPerCycle() float64 { return r.TotalMeter.CarbonPerCycle() }

// Completion returns the fraction of demanded cycles that completed.
func (r *FleetResult) Completion() float64 {
	if r.Demanded == 0 {
		return 0
	}
	return r.TotalMeter.CyclesDone / r.Demanded
}

// Multi-site serialization. This is a separate, self-contained schema —
// deliberately NOT an extension of the single-site results file in
// serialize.go, whose byte stream anchors the reference-seed md5 — but it
// is written by the same jsonStream.

// fleetFileVersion guards the multi-site schema.
const fleetFileVersion = 1

// WriteFleetJSON serializes a multi-site result canonically: fixed field
// order, floats as quoted shortest-round-trip 'g' strings, UTC RFC3339
// times, one-space indent. The byte stream is a pure function of the
// result, which is what makes Digest a replay-identity check. It is
// appended straight from r; every field encodes, so the only error is
// w's.
func WriteFleetJSON(w io.Writer, r *FleetResult) error {
	s := &jsonStream{w: w, b: make([]byte, 0, saveChunkBytes+saveChunkBytes/4)}
	s.open('{')
	s.intField("version", fleetFileVersion)
	s.strField("policy", r.Policy)
	s.strField("seed", r.Seed)
	s.utcField("start", r.Start)
	s.utcField("end", r.End)
	s.key("step_seconds")
	s.b = strconv.AppendInt(s.b, int64(r.Step/time.Second), 10)
	s.intField("ticks", r.Ticks)
	s.gField("demanded_cycles", r.Demanded)
	s.gField("shed_cycles", r.Shed)
	s.gField("migrated_cycles", r.Migrated)
	s.meterField("total", &r.TotalMeter)
	s.key("sites")
	if len(r.Sites) == 0 {
		s.null()
	} else {
		s.open('[')
		for i := range r.Sites {
			site := &r.Sites[i]
			s.elem()
			s.open('{')
			s.strField("name", site.Name)
			s.strField("climate", site.Climate)
			s.strField("tariff", site.Tariff)
			s.intField("hosts", site.Hosts)
			s.meterField("meter", &site.Meter)
			s.intField("envelope_ticks", site.EnvelopeTicks)
			s.intField("guard_trips", site.ControlStats.GuardTrips)
			s.intField("envelope_override_ticks", site.ControlStats.EnvelopeTicks)
			s.gsField("intake_c", site.Intake)
			s.gsField("damper", site.Damper)
			s.gsField("assigned_cycles", site.Assigned)
			s.gsField("price_usd_kwh", site.Price)
			s.close('}')
		}
		s.close(']')
	}
	s.close('}')
	s.b = append(s.b, '\n')
	s.flush()
	if s.err != nil {
		return fmt.Errorf("core: encoding fleet results: %w", s.err)
	}
	return nil
}

// utcField writes t in UTC as an RFC3339Nano string; unlike a time
// value, the string form has no year range to refuse.
func (s *jsonStream) utcField(k string, t time.Time) {
	s.key(k)
	s.b = append(s.b, '"')
	s.b = t.UTC().AppendFormat(s.b, time.RFC3339Nano)
	s.b = append(s.b, '"')
}

func (s *jsonStream) gField(k string, v float64) {
	s.key(k)
	s.gfloat(v)
}

// gsField writes vs as an array of 'g' strings; nil writes [] like an
// empty slice.
func (s *jsonStream) gsField(k string, vs []float64) {
	s.key(k)
	s.open('[')
	for _, v := range vs {
		s.elem()
		s.gfloat(v)
	}
	s.close(']')
}

func (s *jsonStream) meterField(k string, m *econ.Meter) {
	s.key(k)
	s.open('{')
	s.gField("it_energy_kwh", float64(m.ITEnergy))
	s.gField("vent_energy_kwh", float64(m.VentEnergy))
	s.gField("migration_energy_kwh", float64(m.MigrationEnergy))
	s.gField("cost_usd", m.CostUSD)
	s.gField("carbon_g", m.CarbonG)
	s.gField("cycles_done", m.CyclesDone)
	s.gField("cycles_shed", m.CyclesShed)
	s.gField("cycles_in", m.CyclesIn)
	s.gField("cycles_out", m.CyclesOut)
	s.close('}')
}

// Digest returns the md5 of the canonical serialization — the multi-site
// run's replay digest. Two runs of the same config must produce equal
// digests at any GOMAXPROCS; the CI econ gate enforces this.
func (r *FleetResult) Digest() string {
	h := md5.New()
	_ = WriteFleetJSON(h, r) // a hash never fails a write
	return hex.EncodeToString(h.Sum(nil))
}
