package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"frostlab/internal/hardware"
	"frostlab/internal/monitor"
	"frostlab/internal/rules"
	"frostlab/internal/thermal"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
	"frostlab/internal/workload"
)

// Results serialization: a finished run can be saved as JSON and reloaded
// later to re-render figures without re-running the experiment
// (frostctl -save / -load). The on-disk schema is explicit DTO structs so
// the public Results type can evolve without breaking saved runs.

// resultsFileVersion guards the schema.
const resultsFileVersion = 1

type seriesDTO struct {
	Name   string      `json:"name"`
	Unit   string      `json:"unit"`
	Points [][2]string `json:"points"` // [RFC3339Nano, value]
}

func seriesToDTO(s *timeseries.Series) seriesDTO {
	d := seriesDTO{Name: s.Name(), Unit: s.Unit()}
	for _, p := range s.Points() {
		d.Points = append(d.Points, [2]string{
			p.At.UTC().Format(time.RFC3339Nano),
			fmt.Sprintf("%g", p.Value),
		})
	}
	return d
}

func seriesFromDTO(d seriesDTO) (*timeseries.Series, error) {
	s := timeseries.New(d.Name, d.Unit)
	for i, p := range d.Points {
		at, err := time.Parse(time.RFC3339Nano, p[0])
		if err != nil {
			return nil, fmt.Errorf("core: series %s point %d time: %w", d.Name, i, err)
		}
		var v float64
		if _, err := fmt.Sscanf(p[1], "%g", &v); err != nil {
			return nil, fmt.Errorf("core: series %s point %d value: %w", d.Name, i, err)
		}
		if err := s.Append(at, v); err != nil {
			return nil, fmt.Errorf("core: series %s point %d: %w", d.Name, i, err)
		}
	}
	return s, nil
}

type hashIncidentDTO struct {
	HostID    string    `json:"host"`
	Location  string    `json:"location"`
	At        time.Time `json:"at"`
	BadBlocks []int     `json:"bad_blocks"`
	Blocks    int       `json:"blocks"`
}

type cycleResultDTO struct {
	HostID    string    `json:"host"`
	At        time.Time `json:"at"`
	OK        bool      `json:"ok"`
	MD5       string    `json:"md5"`
	BadBlocks []int     `json:"bad_blocks,omitempty"`
	Blocks    int       `json:"blocks"`
}

type hostReportDTO struct {
	ID           string           `json:"id"`
	Vendor       string           `json:"vendor"`
	Location     string           `json:"location"`
	Relocated    bool             `json:"relocated"`
	InstalledAt  time.Time        `json:"installed_at"`
	Cycles       uint64           `json:"cycles"`
	BadHashes    []cycleResultDTO `json:"bad_hashes,omitempty"`
	Transients   []time.Time      `json:"transients,omitempty"`
	CPUMin       float64          `json:"cpu_min"`
	CPUMax       float64          `json:"cpu_max"`
	ChipGlitched bool             `json:"chip_glitched"`
	FailedDisks  []int            `json:"failed_disks,omitempty"`
	StorageLost  bool             `json:"storage_lost"`
}

type eventDTO struct {
	At      time.Time `json:"at"`
	Kind    string    `json:"kind"`
	Subject string    `json:"subject"`
	Detail  string    `json:"detail"`
}

type rateDTO struct {
	Events int `json:"events"`
	Trials int `json:"trials"`
}

type resultsDTO struct {
	Version       int                  `json:"version"`
	Seed          string               `json:"seed"`
	StartAt       time.Time            `json:"start"`
	EndAt         time.Time            `json:"end"`
	OutsideTemp   seriesDTO            `json:"outside_temp"`
	OutsideRH     seriesDTO            `json:"outside_rh"`
	InsideTemp    seriesDTO            `json:"inside_temp"`
	InsideRH      seriesDTO            `json:"inside_rh"`
	InsideTempRaw seriesDTO            `json:"inside_temp_raw"`
	Modifications map[string]time.Time `json:"modifications"`
	Events        []eventDTO           `json:"events"`
	Hosts         []hostReportDTO      `json:"hosts"`

	TentRate    rateDTO `json:"tent_rate"`
	ControlRate rateDTO `json:"control_rate"`
	InitialRate rateDTO `json:"initial_rate"`

	TotalCycles     uint64            `json:"total_cycles"`
	WrongHashes     []hashIncidentDTO `json:"wrong_hashes"`
	TentBadHash     int               `json:"tent_bad_hash"`
	BasementBadHash int               `json:"basement_bad_hash"`

	PagesTouched           int64   `json:"pages_touched"`
	ImpliedPageFailureRate float64 `json:"implied_page_failure_rate"`

	SwitchFailures []eventDTO `json:"switch_failures"`

	MonitorRounds       int               `json:"monitor_rounds"`
	MonitorLiteralBytes int               `json:"monitor_literal_bytes"`
	MonitorTotalBytes   int               `json:"monitor_total_bytes"`
	MonitorCoverage     float64           `json:"monitor_coverage,omitempty"`
	MonitorGaps         []monitor.HostGap `json:"monitor_gaps,omitempty"`

	TentEnergyKWh        float64 `json:"tent_energy_kwh"`
	MeterLastReadingW    float64 `json:"meter_last_reading_w"`
	SMARTLongTestsPassed int     `json:"smart_pass"`
	SMARTLongTestsFailed int     `json:"smart_fail"`

	// Control is additive: open-loop files (and files written before the
	// control plane existed) simply omit it.
	Control *controlDTO `json:"control,omitempty"`
	// Alerts is additive the same way: runs without a rule set omit it.
	// rules.Report is already a stable serialization shape, so it is
	// embedded directly rather than mirrored into a local DTO.
	Alerts *rules.Report `json:"alerts,omitempty"`
}

type controlStatsDTO struct {
	Ticks         int    `json:"ticks"`
	InBand        int    `json:"in_band"`
	GuardTrips    int    `json:"guard_trips"`
	GuardTicks    int    `json:"guard_ticks"`
	EnvelopeTicks int    `json:"envelope_override_ticks"`
	FallbackTicks int    `json:"fallback_ticks"`
	StuckTicks    int    `json:"stuck_ticks"`
	DutyTicks     [4]int `json:"duty_ticks"`
	DutyChanges   int    `json:"duty_changes"`
}

type controlDTO struct {
	Mode         string  `json:"mode"`
	SetpointC    float64 `json:"setpoint_c"`
	EnvTempLowC  float64 `json:"env_temp_low_c"`
	EnvTempHighC float64 `json:"env_temp_high_c"`
	EnvDewMaxC   float64 `json:"env_dew_max_c"`
	EnvRHMax     float64 `json:"env_rh_max"`

	Stats           controlStatsDTO `json:"stats"`
	MigratedCycles  uint64          `json:"migrated_cycles"`
	EnvelopeTicks   int             `json:"envelope_ticks"`
	EnvelopeInTicks int             `json:"envelope_in_ticks"`

	Setpoints  seriesDTO   `json:"setpoints"`
	PV         seriesDTO   `json:"pv"`
	Damper     seriesDTO   `json:"damper"`
	Duty       seriesDTO   `json:"duty"`
	GuardTrips []time.Time `json:"guard_trips,omitempty"`
}

// modificationNames maps serialization keys to modifications.
var modificationNames = map[string]thermal.Modification{
	"R": thermal.ReflectiveFoil,
	"I": thermal.RemoveInnerTent,
	"B": thermal.OpenBottom,
	"F": thermal.InstallFan,
}

// SaveResults writes a finished run as JSON.
func SaveResults(w io.Writer, r *Results) error {
	d := resultsDTO{
		Version:       resultsFileVersion,
		Seed:          r.Seed,
		StartAt:       r.Start,
		EndAt:         r.End,
		OutsideTemp:   seriesToDTO(r.OutsideTemp),
		OutsideRH:     seriesToDTO(r.OutsideRH),
		InsideTemp:    seriesToDTO(r.InsideTemp),
		InsideRH:      seriesToDTO(r.InsideRH),
		InsideTempRaw: seriesToDTO(r.InsideTempRaw),
		Modifications: map[string]time.Time{},
		TentRate:      rateDTO{r.TentHostFailureRate.Events, r.TentHostFailureRate.Trials},
		ControlRate:   rateDTO{r.ControlHostFailureRate.Events, r.ControlHostFailureRate.Trials},
		InitialRate:   rateDTO{r.InitialHostFailureRate.Events, r.InitialHostFailureRate.Trials},

		TotalCycles:            r.TotalCycles,
		TentBadHash:            r.TentBadHash,
		BasementBadHash:        r.BasementBadHash,
		PagesTouched:           r.PagesTouched,
		ImpliedPageFailureRate: r.ImpliedPageFailureRate,
		MonitorRounds:          r.MonitorRounds,
		MonitorLiteralBytes:    r.MonitorLiteralBytes,
		MonitorTotalBytes:      r.MonitorTotalBytes,
		MonitorCoverage:        r.MonitorCoverage,
		MonitorGaps:            r.MonitorGaps,
		TentEnergyKWh:          float64(r.TentEnergy),
		MeterLastReadingW:      float64(r.MeterLastReading),
		SMARTLongTestsPassed:   r.SMARTLongTestsPassed,
		SMARTLongTestsFailed:   r.SMARTLongTestsFailed,
	}
	for m, at := range r.Modifications {
		d.Modifications[m.String()] = at
	}
	for _, ev := range r.Events {
		d.Events = append(d.Events, eventDTO{ev.At, string(ev.Kind), ev.Subject, ev.Detail})
	}
	for _, ev := range r.SwitchFailures {
		d.SwitchFailures = append(d.SwitchFailures, eventDTO{ev.At, string(ev.Kind), ev.Subject, ev.Detail})
	}
	for _, id := range sortedHostIDs(r.Hosts) {
		h := r.Hosts[id]
		hd := hostReportDTO{
			ID: h.ID, Vendor: string(h.Vendor), Location: string(h.Location),
			Relocated: h.Relocated, InstalledAt: h.InstalledAt, Cycles: h.Cycles,
			Transients: h.Transients, CPUMin: float64(h.CPUMin), CPUMax: float64(h.CPUMax),
			ChipGlitched: h.ChipGlitched, FailedDisks: h.FailedDisks, StorageLost: h.StorageLost,
		}
		for _, bh := range h.BadHashes {
			hd.BadHashes = append(hd.BadHashes, cycleResultDTO{
				HostID: bh.HostID, At: bh.At, OK: bh.OK, MD5: bh.MD5.String(),
				BadBlocks: bh.BadBlocks, Blocks: bh.Blocks,
			})
		}
		d.Hosts = append(d.Hosts, hd)
	}
	for _, inc := range r.WrongHashes {
		d.WrongHashes = append(d.WrongHashes, hashIncidentDTO(inc))
	}
	if cr := r.Control; cr != nil {
		d.Control = &controlDTO{
			Mode:         cr.Mode,
			SetpointC:    float64(cr.Setpoint),
			EnvTempLowC:  float64(cr.Envelope.TempLow),
			EnvTempHighC: float64(cr.Envelope.TempHigh),
			EnvDewMaxC:   float64(cr.Envelope.DewPointMax),
			EnvRHMax:     float64(cr.Envelope.RHMax),
			Stats: controlStatsDTO{
				Ticks:         cr.Stats.Ticks,
				InBand:        cr.Stats.InBand,
				GuardTrips:    cr.Stats.GuardTrips,
				GuardTicks:    cr.Stats.GuardTicks,
				EnvelopeTicks: cr.Stats.EnvelopeTicks,
				FallbackTicks: cr.Stats.FallbackTicks,
				StuckTicks:    cr.Stats.StuckTicks,
				DutyTicks:     cr.Stats.DutyTicks,
				DutyChanges:   cr.Stats.DutyChanges,
			},
			MigratedCycles:  cr.MigratedCycles,
			EnvelopeTicks:   cr.EnvelopeTicks,
			EnvelopeInTicks: cr.EnvelopeInTicks,
			Setpoints:       seriesToDTO(cr.Setpoints),
			PV:              seriesToDTO(cr.PV),
			Damper:          seriesToDTO(cr.Damper),
			Duty:            seriesToDTO(cr.Duty),
			GuardTrips:      cr.GuardTrips,
		}
	}
	d.Alerts = r.Alerts
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

func sortedHostIDs(hosts map[string]*HostReport) []string {
	ids := make([]string, 0, len(hosts))
	for id := range hosts {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// LoadResults reads a run saved with SaveResults. The digest strings of
// bad-hash records are preserved textually but not re-parsed into digests
// (figures only print them).
func LoadResults(rd io.Reader) (*Results, error) {
	var d resultsDTO
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("core: decoding results: %w", err)
	}
	if d.Version != resultsFileVersion {
		return nil, fmt.Errorf("core: results file version %d, want %d", d.Version, resultsFileVersion)
	}
	out := &Results{
		Seed:          d.Seed,
		Start:         d.StartAt,
		End:           d.EndAt,
		Modifications: map[thermal.Modification]time.Time{},
		Hosts:         map[string]*HostReport{},

		TotalCycles:            d.TotalCycles,
		TentBadHash:            d.TentBadHash,
		BasementBadHash:        d.BasementBadHash,
		PagesTouched:           d.PagesTouched,
		ImpliedPageFailureRate: d.ImpliedPageFailureRate,
		MonitorRounds:          d.MonitorRounds,
		MonitorLiteralBytes:    d.MonitorLiteralBytes,
		MonitorTotalBytes:      d.MonitorTotalBytes,
		MonitorCoverage:        d.MonitorCoverage,
		MonitorGaps:            d.MonitorGaps,
		TentEnergy:             units.KilowattHours(d.TentEnergyKWh),
		MeterLastReading:       units.Watts(d.MeterLastReadingW),
		SMARTLongTestsPassed:   d.SMARTLongTestsPassed,
		SMARTLongTestsFailed:   d.SMARTLongTestsFailed,
	}
	out.TentHostFailureRate.Events, out.TentHostFailureRate.Trials = d.TentRate.Events, d.TentRate.Trials
	out.ControlHostFailureRate.Events, out.ControlHostFailureRate.Trials = d.ControlRate.Events, d.ControlRate.Trials
	out.InitialHostFailureRate.Events, out.InitialHostFailureRate.Trials = d.InitialRate.Events, d.InitialRate.Trials

	var err error
	if out.OutsideTemp, err = seriesFromDTO(d.OutsideTemp); err != nil {
		return nil, err
	}
	if out.OutsideRH, err = seriesFromDTO(d.OutsideRH); err != nil {
		return nil, err
	}
	if out.InsideTemp, err = seriesFromDTO(d.InsideTemp); err != nil {
		return nil, err
	}
	if out.InsideRH, err = seriesFromDTO(d.InsideRH); err != nil {
		return nil, err
	}
	if out.InsideTempRaw, err = seriesFromDTO(d.InsideTempRaw); err != nil {
		return nil, err
	}
	for name, at := range d.Modifications {
		m, ok := modificationNames[name]
		if !ok {
			return nil, fmt.Errorf("core: unknown modification %q in results file", name)
		}
		out.Modifications[m] = at
	}
	for _, ev := range d.Events {
		out.Events = append(out.Events, Event{At: ev.At, Kind: EventKind(ev.Kind), Subject: ev.Subject, Detail: ev.Detail})
	}
	for _, ev := range d.SwitchFailures {
		out.SwitchFailures = append(out.SwitchFailures, Event{At: ev.At, Kind: EventKind(ev.Kind), Subject: ev.Subject, Detail: ev.Detail})
	}
	for _, hd := range d.Hosts {
		h := &HostReport{
			ID: hd.ID, Vendor: hardware.Vendor(hd.Vendor), Location: hardware.Location(hd.Location),
			Relocated: hd.Relocated, InstalledAt: hd.InstalledAt, Cycles: hd.Cycles,
			Transients: hd.Transients, CPUMin: units.Celsius(hd.CPUMin), CPUMax: units.Celsius(hd.CPUMax),
			ChipGlitched: hd.ChipGlitched, FailedDisks: hd.FailedDisks, StorageLost: hd.StorageLost,
		}
		for _, bh := range hd.BadHashes {
			h.BadHashes = append(h.BadHashes, workload.CycleResult{
				HostID: bh.HostID, At: bh.At, OK: bh.OK,
				BadBlocks: bh.BadBlocks, Blocks: bh.Blocks,
			})
		}
		out.Hosts[h.ID] = h
	}
	for _, inc := range d.WrongHashes {
		out.WrongHashes = append(out.WrongHashes, HashIncident(inc))
	}
	if cd := d.Control; cd != nil {
		cr := &ControlReport{
			Mode:     cd.Mode,
			Setpoint: units.Celsius(cd.SetpointC),
			Envelope: units.AshraeEnvelope{
				TempLow:     units.Celsius(cd.EnvTempLowC),
				TempHigh:    units.Celsius(cd.EnvTempHighC),
				DewPointMax: units.Celsius(cd.EnvDewMaxC),
				RHMax:       units.RelHumidity(cd.EnvRHMax),
			},
			MigratedCycles:  cd.MigratedCycles,
			EnvelopeTicks:   cd.EnvelopeTicks,
			EnvelopeInTicks: cd.EnvelopeInTicks,
			GuardTrips:      cd.GuardTrips,
		}
		cr.Stats.Ticks = cd.Stats.Ticks
		cr.Stats.InBand = cd.Stats.InBand
		cr.Stats.GuardTrips = cd.Stats.GuardTrips
		cr.Stats.GuardTicks = cd.Stats.GuardTicks
		cr.Stats.EnvelopeTicks = cd.Stats.EnvelopeTicks
		cr.Stats.FallbackTicks = cd.Stats.FallbackTicks
		cr.Stats.StuckTicks = cd.Stats.StuckTicks
		cr.Stats.DutyTicks = cd.Stats.DutyTicks
		cr.Stats.DutyChanges = cd.Stats.DutyChanges
		if cr.Setpoints, err = seriesFromDTO(cd.Setpoints); err != nil {
			return nil, err
		}
		if cr.PV, err = seriesFromDTO(cd.PV); err != nil {
			return nil, err
		}
		if cr.Damper, err = seriesFromDTO(cd.Damper); err != nil {
			return nil, err
		}
		if cr.Duty, err = seriesFromDTO(cd.Duty); err != nil {
			return nil, err
		}
		out.Control = cr
	}
	out.Alerts = d.Alerts
	return out, nil
}
