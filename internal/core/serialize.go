package core

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"

	"frostlab/internal/hardware"
	"frostlab/internal/monitor"
	"frostlab/internal/rules"
	"frostlab/internal/stats"
	"frostlab/internal/thermal"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
	"frostlab/internal/workload"
)

// Results serialization: a finished run can be saved as JSON and reloaded
// later to re-render figures without re-running the experiment
// (frostctl -save / -load). The on-disk schema is explicit DTO structs so
// the public Results type can evolve without breaking saved runs.
// LoadResults decodes into them; SaveResults writes the same document
// directly from Results, and the tests hold it to what json.Encoder makes
// of the DTOs.

// resultsFileVersion guards the schema.
const resultsFileVersion = 1

type seriesDTO struct {
	Name   string      `json:"name"`
	Unit   string      `json:"unit"`
	Points [][2]string `json:"points"` // [RFC3339Nano, value]
}

func seriesFromDTO(d seriesDTO) (*timeseries.Series, error) {
	s := timeseries.New(d.Name, d.Unit)
	for i, p := range d.Points {
		at, err := time.Parse(time.RFC3339Nano, p[0])
		if err != nil {
			return nil, fmt.Errorf("core: series %s point %d time: %w", d.Name, i, err)
		}
		v, err := strconv.ParseFloat(p[1], 64)
		if err != nil {
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

// saveChunkBytes is about how much SaveResults buffers between writes.
const saveChunkBytes = 32 << 10

// SaveResults writes a finished run as JSON. The bytes are exactly what
// json.Encoder with SetIndent("", " ") makes of the run as a resultsDTO,
// but they are appended straight from r and handed to w about
// saveChunkBytes at a time: no DTO copy, no reflection and no second
// indent pass. Like json.Encoder, it writes nothing when a field cannot
// be encoded (a NaN or infinite float, a time outside years 0–9999);
// series values are %g strings, so NaN and ±Inf points save as they are.
func SaveResults(w io.Writer, r *Results) error {
	gaps, alerts, err := preflightResults(r)
	if err != nil {
		return err
	}
	s := &jsonStream{w: w, b: make([]byte, 0, saveChunkBytes+saveChunkBytes/4)}
	s.open('{')
	s.intField("version", resultsFileVersion)
	s.strField("seed", r.Seed)
	s.timeField("start", r.Start)
	s.timeField("end", r.End)
	s.seriesField("outside_temp", r.OutsideTemp)
	s.seriesField("outside_rh", r.OutsideRH)
	s.seriesField("inside_temp", r.InsideTemp)
	s.seriesField("inside_rh", r.InsideRH)
	s.seriesField("inside_temp_raw", r.InsideTempRaw)
	s.modificationsField(r.Modifications)
	s.eventsField("events", r.Events)
	s.key("hosts")
	if len(r.Hosts) == 0 {
		s.null()
	} else {
		s.open('[')
		for _, id := range sortedHostIDs(r.Hosts) {
			s.elem()
			s.host(r.Hosts[id])
		}
		s.close(']')
	}
	s.rateField("tent_rate", r.TentHostFailureRate)
	s.rateField("control_rate", r.ControlHostFailureRate)
	s.rateField("initial_rate", r.InitialHostFailureRate)
	s.uintField("total_cycles", r.TotalCycles)
	s.key("wrong_hashes")
	if len(r.WrongHashes) == 0 {
		s.null()
	} else {
		s.open('[')
		for i := range r.WrongHashes {
			inc := &r.WrongHashes[i]
			s.elem()
			s.open('{')
			s.strField("host", inc.HostID)
			s.strField("location", inc.Location)
			s.timeField("at", inc.At)
			s.intsField("bad_blocks", inc.BadBlocks)
			s.intField("blocks", inc.Blocks)
			s.close('}')
		}
		s.close(']')
	}
	s.intField("tent_bad_hash", r.TentBadHash)
	s.intField("basement_bad_hash", r.BasementBadHash)
	s.key("pages_touched")
	s.b = strconv.AppendInt(s.b, r.PagesTouched, 10)
	s.floatField("implied_page_failure_rate", r.ImpliedPageFailureRate)
	s.eventsField("switch_failures", r.SwitchFailures)
	s.intField("monitor_rounds", r.MonitorRounds)
	s.intField("monitor_literal_bytes", r.MonitorLiteralBytes)
	s.intField("monitor_total_bytes", r.MonitorTotalBytes)
	if r.MonitorCoverage != 0 {
		s.floatField("monitor_coverage", r.MonitorCoverage)
	}
	if gaps != nil {
		s.key("monitor_gaps")
		s.b = append(s.b, gaps...)
	}
	s.floatField("tent_energy_kwh", float64(r.TentEnergy))
	s.floatField("meter_last_reading_w", float64(r.MeterLastReading))
	s.intField("smart_pass", r.SMARTLongTestsPassed)
	s.intField("smart_fail", r.SMARTLongTestsFailed)
	if r.Control != nil {
		s.key("control")
		s.control(r.Control)
	}
	if alerts != nil {
		s.key("alerts")
		s.b = append(s.b, alerts...)
	}
	s.close('}')
	s.b = append(s.b, '\n')
	s.flush()
	return s.err
}

// preflightResults returns json.Encoder's error for the first field of r
// it would refuse, so that SaveResults fails before its first write. It
// also marshals the two small nested reports that SaveResults copies in
// whole, indented for their place one level into the document.
func preflightResults(r *Results) (gaps, alerts []byte, err error) {
	var c encodeCheck
	c.time(r.Start)
	c.time(r.End)
	for _, at := range r.Modifications {
		c.time(at)
	}
	for i := range r.Events {
		c.time(r.Events[i].At)
	}
	for _, h := range r.Hosts {
		c.time(h.InstalledAt)
		for i := range h.BadHashes {
			c.time(h.BadHashes[i].At)
		}
		for _, at := range h.Transients {
			c.time(at)
		}
		c.float(float64(h.CPUMin))
		c.float(float64(h.CPUMax))
	}
	for i := range r.WrongHashes {
		c.time(r.WrongHashes[i].At)
	}
	c.float(r.ImpliedPageFailureRate)
	for i := range r.SwitchFailures {
		c.time(r.SwitchFailures[i].At)
	}
	c.float(r.MonitorCoverage)
	c.float(float64(r.TentEnergy))
	c.float(float64(r.MeterLastReading))
	if cr := r.Control; cr != nil {
		c.float(float64(cr.Setpoint))
		c.float(float64(cr.Envelope.TempLow))
		c.float(float64(cr.Envelope.TempHigh))
		c.float(float64(cr.Envelope.DewPointMax))
		c.float(float64(cr.Envelope.RHMax))
		for _, at := range cr.GuardTrips {
			c.time(at)
		}
	}
	if c.err != nil {
		return nil, nil, c.err
	}
	if len(r.MonitorGaps) > 0 {
		if gaps, err = json.MarshalIndent(r.MonitorGaps, " ", " "); err != nil {
			return nil, nil, err
		}
	}
	if r.Alerts != nil {
		if alerts, err = json.MarshalIndent(r.Alerts, " ", " "); err != nil {
			return nil, nil, err
		}
	}
	return gaps, alerts, nil
}

// encodeCheck keeps the first error encoding/json reports for a value it
// refuses. Values that pass the cheap test are never marshalled.
type encodeCheck struct{ err error }

func (c *encodeCheck) float(f float64) {
	if c.err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		_, c.err = json.Marshal(f)
	}
}

// time flags the times time.Time.MarshalJSON rejects: a year outside
// 0–9999 or a zone offset of a day or more.
func (c *encodeCheck) time(t time.Time) {
	if c.err != nil {
		return
	}
	_, off := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || off <= -86400 || off >= 86400 {
		_, c.err = json.Marshal(t)
	}
}

// indentSpaces holds enough one-space indents for the deepest level
// SaveResults writes itself.
const indentSpaces = "                "

// jsonStream appends a one-space-indented JSON document to b and hands b
// to w whenever an element starts with saveChunkBytes or more buffered.
// After a failed write it keeps the error and drops further output.
type jsonStream struct {
	w     io.Writer
	b     []byte
	err   error
	depth int
	first bool // the innermost open container has no element yet
}

func (s *jsonStream) flush() {
	if s.err == nil {
		_, s.err = s.w.Write(s.b)
	}
	s.b = s.b[:0]
}

func (s *jsonStream) newline() {
	s.b = append(s.b, '\n')
	s.b = append(s.b, indentSpaces[:s.depth]...)
}

func (s *jsonStream) open(c byte) {
	s.b = append(s.b, c)
	s.depth++
	s.first = true
}

// close ends the innermost container; an empty one stays "[]" or "{}".
func (s *jsonStream) close(c byte) {
	s.depth--
	if !s.first {
		s.newline()
	}
	s.b = append(s.b, c)
	s.first = false
}

// elem starts the next element of the innermost container.
func (s *jsonStream) elem() {
	if len(s.b) >= saveChunkBytes {
		s.flush()
	}
	if !s.first {
		s.b = append(s.b, ',')
	}
	s.first = false
	s.newline()
}

// key starts an object member; k must need no escaping.
func (s *jsonStream) key(k string) {
	s.elem()
	s.b = append(s.b, '"')
	s.b = append(s.b, k...)
	s.b = append(s.b, `": `...)
}

func (s *jsonStream) null() { s.b = append(s.b, "null"...) }

// str writes v quoted. ASCII from the space up is copied unless it is one
// of the five characters encoding/json escapes there; a string with any
// other byte goes through json.Marshal, which cannot fail on a string.
func (s *jsonStream) str(v string) {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(v)
			s.b = append(s.b, q...)
			return
		}
	}
	s.b = append(s.b, '"')
	s.b = append(s.b, v...)
	s.b = append(s.b, '"')
}

// float writes f as encoding/json does: 'f' format, or 'e' below 1e-6
// and from 1e21 up, with a one-digit negative exponent unpadded.
func (s *jsonStream) float(f float64) {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	s.b = strconv.AppendFloat(s.b, f, format, -1, 64)
	if n := len(s.b); format == 'e' && s.b[n-4] == 'e' && s.b[n-3] == '-' && s.b[n-2] == '0' {
		s.b[n-2] = s.b[n-1]
		s.b = s.b[:n-1]
	}
}

// gfloat writes f as a quoted shortest 'g' string, the %g form, which
// needs no escaping and keeps NaN and ±Inf.
func (s *jsonStream) gfloat(f float64) {
	s.b = append(s.b, '"')
	s.b = strconv.AppendFloat(s.b, f, 'g', -1, 64)
	s.b = append(s.b, '"')
}

// time writes t as time.Time.MarshalJSON does for the times
// preflightResults lets through.
func (s *jsonStream) time(t time.Time) {
	s.b = append(s.b, '"')
	s.b = t.AppendFormat(s.b, time.RFC3339Nano)
	s.b = append(s.b, '"')
}

func (s *jsonStream) strField(k, v string) {
	s.key(k)
	s.str(v)
}

func (s *jsonStream) intField(k string, v int) {
	s.key(k)
	s.b = strconv.AppendInt(s.b, int64(v), 10)
}

func (s *jsonStream) uintField(k string, v uint64) {
	s.key(k)
	s.b = strconv.AppendUint(s.b, v, 10)
}

func (s *jsonStream) boolField(k string, v bool) {
	s.key(k)
	s.b = strconv.AppendBool(s.b, v)
}

func (s *jsonStream) floatField(k string, v float64) {
	s.key(k)
	s.float(v)
}

func (s *jsonStream) timeField(k string, t time.Time) {
	s.key(k)
	s.time(t)
}

// intsField writes a nil slice as null, as encoding/json does.
func (s *jsonStream) intsField(k string, v []int) {
	s.key(k)
	if v == nil {
		s.null()
		return
	}
	s.open('[')
	for _, n := range v {
		s.elem()
		s.b = strconv.AppendInt(s.b, int64(n), 10)
	}
	s.close(']')
}

func (s *jsonStream) timesField(k string, v []time.Time) {
	s.key(k)
	if v == nil {
		s.null()
		return
	}
	s.open('[')
	for _, t := range v {
		s.elem()
		s.time(t)
	}
	s.close(']')
}

func (s *jsonStream) rateField(k string, r stats.Rate) {
	s.key(k)
	s.open('{')
	s.intField("events", r.Events)
	s.intField("trials", r.Trials)
	s.close('}')
}

// seriesField writes a series as a seriesDTO: each point is a
// [RFC3339Nano UTC time, %g value] pair of strings.
func (s *jsonStream) seriesField(k string, ts *timeseries.Series) {
	s.key(k)
	s.open('{')
	s.strField("name", ts.Name())
	s.strField("unit", ts.Unit())
	s.key("points")
	if pts := ts.Points(); len(pts) == 0 {
		s.null()
	} else {
		s.open('[')
		for _, p := range pts {
			s.elem()
			s.open('[')
			s.elem()
			s.time(p.At.UTC())
			s.elem()
			s.gfloat(p.Value)
			s.close(']')
		}
		s.close(']')
	}
	s.close('}')
}

// modificationsField writes the applied modifications as an object keyed
// by name, sorted like an encoding/json map.
func (s *jsonStream) modificationsField(mods map[thermal.Modification]time.Time) {
	type named struct {
		name string
		at   time.Time
	}
	byName := make([]named, 0, len(mods))
	for m, at := range mods {
		byName = append(byName, named{m.String(), at})
	}
	sort.Slice(byName, func(i, j int) bool { return byName[i].name < byName[j].name })
	s.key("modifications")
	s.open('{')
	for _, n := range byName {
		s.elem()
		s.str(n.name)
		s.b = append(s.b, ": "...)
		s.time(n.at)
	}
	s.close('}')
}

func (s *jsonStream) eventsField(k string, evs []Event) {
	s.key(k)
	if len(evs) == 0 {
		s.null()
		return
	}
	s.open('[')
	for i := range evs {
		ev := &evs[i]
		s.elem()
		s.open('{')
		s.timeField("at", ev.At)
		s.strField("kind", string(ev.Kind))
		s.strField("subject", ev.Subject)
		s.strField("detail", ev.Detail)
		s.close('}')
	}
	s.close(']')
}

func (s *jsonStream) host(h *HostReport) {
	s.open('{')
	s.strField("id", h.ID)
	s.strField("vendor", string(h.Vendor))
	s.strField("location", string(h.Location))
	s.boolField("relocated", h.Relocated)
	s.timeField("installed_at", h.InstalledAt)
	s.uintField("cycles", h.Cycles)
	if len(h.BadHashes) > 0 {
		s.key("bad_hashes")
		s.open('[')
		for i := range h.BadHashes {
			bh := &h.BadHashes[i]
			s.elem()
			s.open('{')
			s.strField("host", bh.HostID)
			s.timeField("at", bh.At)
			s.boolField("ok", bh.OK)
			s.key("md5")
			s.b = append(s.b, '"')
			s.b = hex.AppendEncode(s.b, bh.MD5[:])
			s.b = append(s.b, '"')
			if len(bh.BadBlocks) > 0 {
				s.intsField("bad_blocks", bh.BadBlocks)
			}
			s.intField("blocks", bh.Blocks)
			s.close('}')
		}
		s.close(']')
	}
	if len(h.Transients) > 0 {
		s.timesField("transients", h.Transients)
	}
	s.floatField("cpu_min", float64(h.CPUMin))
	s.floatField("cpu_max", float64(h.CPUMax))
	s.boolField("chip_glitched", h.ChipGlitched)
	if len(h.FailedDisks) > 0 {
		s.intsField("failed_disks", h.FailedDisks)
	}
	s.boolField("storage_lost", h.StorageLost)
	s.close('}')
}

func (s *jsonStream) control(cr *ControlReport) {
	s.open('{')
	s.strField("mode", cr.Mode)
	s.floatField("setpoint_c", float64(cr.Setpoint))
	s.floatField("env_temp_low_c", float64(cr.Envelope.TempLow))
	s.floatField("env_temp_high_c", float64(cr.Envelope.TempHigh))
	s.floatField("env_dew_max_c", float64(cr.Envelope.DewPointMax))
	s.floatField("env_rh_max", float64(cr.Envelope.RHMax))
	st := &cr.Stats
	s.key("stats")
	s.open('{')
	s.intField("ticks", st.Ticks)
	s.intField("in_band", st.InBand)
	s.intField("guard_trips", st.GuardTrips)
	s.intField("guard_ticks", st.GuardTicks)
	s.intField("envelope_override_ticks", st.EnvelopeTicks)
	s.intField("fallback_ticks", st.FallbackTicks)
	s.intField("stuck_ticks", st.StuckTicks)
	s.intsField("duty_ticks", st.DutyTicks[:])
	s.intField("duty_changes", st.DutyChanges)
	s.close('}')
	s.uintField("migrated_cycles", cr.MigratedCycles)
	s.intField("envelope_ticks", cr.EnvelopeTicks)
	s.intField("envelope_in_ticks", cr.EnvelopeInTicks)
	s.seriesField("setpoints", cr.Setpoints)
	s.seriesField("pv", cr.PV)
	s.seriesField("damper", cr.Damper)
	s.seriesField("duty", cr.Duty)
	if len(cr.GuardTrips) > 0 {
		s.timesField("guard_trips", cr.GuardTrips)
	}
	s.close('}')
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
