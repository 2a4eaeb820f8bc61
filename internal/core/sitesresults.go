package core

import (
	"crypto/md5"
	"encoding/json"
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
// serialize.go, whose byte stream anchors the reference-seed md5.

// fleetFileVersion guards the multi-site schema.
const fleetFileVersion = 1

// f formats a float canonically for the digest: shortest round-trip form,
// so the JSON bytes are a pure function of the values.
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

// WriteFleetJSON serializes a multi-site result canonically: fixed field
// order (struct order), shortest-round-trip floats, UTC RFC3339 times.
// The byte stream is a pure function of the result, which is what makes
// Digest a replay-identity check.
func WriteFleetJSON(w io.Writer, r *FleetResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(fleetToDTO(r)); err != nil {
		return fmt.Errorf("core: encoding fleet results: %w", err)
	}
	return nil
}

// Digest returns the md5 of the canonical serialization — the multi-site
// run's replay digest. Two runs of the same config must produce equal
// digests at any GOMAXPROCS; the CI econ gate enforces this.
func (r *FleetResult) Digest() string {
	h := md5.New()
	if err := WriteFleetJSON(h, r); err != nil {
		// The encoder writes to a hash; the only failure mode is a
		// programming bug in the DTO (e.g. an unencodable type).
		panic(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
