package core

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"frostlab/internal/control"
	"frostlab/internal/hardware"
	"frostlab/internal/monitor"
	"frostlab/internal/rules"
	"frostlab/internal/stats"
	"frostlab/internal/thermal"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
	"frostlab/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := shortConfig("serialize")
	cfg.End = cfg.Start.AddDate(0, 0, 3)
	exp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveResults(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResults(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if back.Seed != r.Seed || !back.Start.Equal(r.Start) || !back.End.Equal(r.End) {
		t.Error("header fields differ")
	}
	if back.TotalCycles != r.TotalCycles || back.MonitorRounds != r.MonitorRounds {
		t.Error("counters differ")
	}
	if back.MonitorCoverage != r.MonitorCoverage {
		t.Error("monitor coverage differs")
	}
	if len(back.MonitorGaps) != len(r.MonitorGaps) {
		t.Fatalf("gaps %d vs %d", len(back.MonitorGaps), len(r.MonitorGaps))
	}
	for i, hg := range r.MonitorGaps {
		bg := back.MonitorGaps[i]
		if bg.HostID != hg.HostID || bg.Collected != hg.Collected || bg.Missed != hg.Missed {
			t.Errorf("gap %d differs: %+v vs %+v", i, bg, hg)
		}
	}
	if back.TentHostFailureRate != r.TentHostFailureRate ||
		back.InitialHostFailureRate != r.InitialHostFailureRate {
		t.Error("rates differ")
	}
	if back.OutsideTemp.Len() != r.OutsideTemp.Len() || back.InsideTemp.Len() != r.InsideTemp.Len() {
		t.Fatalf("series lengths differ: %d/%d vs %d/%d",
			back.OutsideTemp.Len(), back.InsideTemp.Len(), r.OutsideTemp.Len(), r.InsideTemp.Len())
	}
	for i := 0; i < r.OutsideTemp.Len(); i += 97 {
		a, b := r.OutsideTemp.At(i), back.OutsideTemp.At(i)
		if !a.At.Equal(b.At) || a.Value != b.Value {
			t.Fatalf("outside point %d differs: %+v vs %+v", i, a, b)
		}
	}
	if len(back.Events) != len(r.Events) {
		t.Fatalf("events %d vs %d", len(back.Events), len(r.Events))
	}
	for i := range r.Events {
		if back.Events[i] != r.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	if len(back.Hosts) != len(r.Hosts) {
		t.Fatalf("hosts %d vs %d", len(back.Hosts), len(r.Hosts))
	}
	for id, h := range r.Hosts {
		bh, ok := back.Hosts[id]
		if !ok {
			t.Fatalf("host %s lost", id)
		}
		if bh.Cycles != h.Cycles || bh.Vendor != h.Vendor || bh.CPUMin != h.CPUMin {
			t.Errorf("host %s fields differ", id)
		}
	}
	if len(back.Modifications) != len(r.Modifications) {
		t.Error("modifications differ")
	}
	if back.TentEnergy != r.TentEnergy || back.SMARTLongTestsPassed != r.SMARTLongTestsPassed {
		t.Error("instrument fields differ")
	}
}

func TestLoadResultsRejectsBadInput(t *testing.T) {
	if _, err := LoadResults(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadResults(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := LoadResults(strings.NewReader(`{"version": 1, "modifications": {"Z": "2010-03-01T00:00:00Z"}}`)); err == nil {
		t.Error("unknown modification accepted")
	}
	for _, v := range []string{"1.5abc", "2.5 7", ""} {
		doc := `{"version": 1, "outside_temp": {"name": "t", "unit": "C", "points": [["2010-03-01T00:00:00Z", "` + v + `"]]}}`
		if _, err := LoadResults(strings.NewReader(doc)); err == nil {
			t.Errorf("point value %q accepted", v)
		}
	}
}

// referenceDTO builds the resultsDTO that SaveResults streams, field by
// field, so json.Encoder can serve as the reference encoder.
func referenceDTO(r *Results) resultsDTO {
	series := func(s *timeseries.Series) seriesDTO {
		d := seriesDTO{Name: s.Name(), Unit: s.Unit()}
		for _, p := range s.Points() {
			d.Points = append(d.Points, [2]string{
				p.At.UTC().Format(time.RFC3339Nano),
				fmt.Sprintf("%g", p.Value),
			})
		}
		return d
	}
	d := resultsDTO{
		Version:       resultsFileVersion,
		Seed:          r.Seed,
		StartAt:       r.Start,
		EndAt:         r.End,
		OutsideTemp:   series(r.OutsideTemp),
		OutsideRH:     series(r.OutsideRH),
		InsideTemp:    series(r.InsideTemp),
		InsideRH:      series(r.InsideRH),
		InsideTempRaw: series(r.InsideTempRaw),
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
		Alerts:                 r.Alerts,
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
		st := cr.Stats
		d.Control = &controlDTO{
			Mode:         cr.Mode,
			SetpointC:    float64(cr.Setpoint),
			EnvTempLowC:  float64(cr.Envelope.TempLow),
			EnvTempHighC: float64(cr.Envelope.TempHigh),
			EnvDewMaxC:   float64(cr.Envelope.DewPointMax),
			EnvRHMax:     float64(cr.Envelope.RHMax),
			Stats: controlStatsDTO{
				st.Ticks, st.InBand, st.GuardTrips, st.GuardTicks, st.EnvelopeTicks,
				st.FallbackTicks, st.StuckTicks, st.DutyTicks, st.DutyChanges,
			},
			MigratedCycles:  cr.MigratedCycles,
			EnvelopeTicks:   cr.EnvelopeTicks,
			EnvelopeInTicks: cr.EnvelopeInTicks,
			Setpoints:       series(cr.Setpoints),
			PV:              series(cr.PV),
			Damper:          series(cr.Damper),
			Duty:            series(cr.Duty),
			GuardTrips:      cr.GuardTrips,
		}
	}
	return d
}

// encodeReference is the reference encoding of v: json.Encoder with the
// one-space indent SaveResults reproduces.
func encodeReference(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func runForSave(t *testing.T, cfg Config) *Results {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// closedLoopSaveMD5 pins the saved bytes of a 4-day closed-loop run,
// control section included. It was measured on the encoding/json save
// path that SaveResults replaced.
const closedLoopSaveMD5 = "2e3f189692432baf13f69e0f5c8ffee9"

// TestSaveResultsMatchesEncodingJSON requires SaveResults to write, byte
// for byte, what json.Encoder writes for the same run: both for the
// resultsDTO decoded back from the saved bytes and for the one built
// from the Results directly. The cases between them fill every section
// of the schema: an open run, a monitored run with alert rules (alerts
// and monitor_gaps), a closed-loop run (control) and a sharded fleet.
func TestSaveResultsMatchesEncodingJSON(t *testing.T) {
	cases := []struct {
		name     string
		full     bool     // a full-length run, skipped with -short
		sections []string // optional sections the run must fill
		golden   string   // md5 pinned here, or "" when another test pins it
		run      func(t *testing.T) *Results
	}{
		{"reference", true, nil, "", func(t *testing.T) *Results { return runForSave(t, referenceConfig()) }},
		{"monitored-rules", false, []string{"alerts", "monitor_gaps"}, "", func(t *testing.T) *Results {
			cfg := DefaultConfig(ReferenceSeed)
			cfg.End = cfg.Start.AddDate(0, 0, 7)
			cfg.MonitorEvery = 20 * time.Minute
			cfg.Rules = rules.Default()
			return runForSave(t, cfg)
		}},
		{"closed-loop", false, []string{"control"}, closedLoopSaveMD5, func(t *testing.T) *Results {
			cfg := DefaultConfig(ReferenceSeed)
			cfg.End = cfg.Start.AddDate(0, 0, 4)
			cc := control.DefaultConfig()
			cfg.Control = &cc
			return runForSave(t, cfg)
		}},
		{"sharded", false, nil, "", func(t *testing.T) *Results {
			e, err := NewSharded(scaleConfig(t, 6, 9), 2)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.full && testing.Short() {
				t.Skip("full reference run")
			}
			r := tc.run(t)
			var buf bytes.Buffer
			if err := SaveResults(&buf, r); err != nil {
				t.Fatal(err)
			}
			got := buf.Bytes()
			var decoded resultsDTO
			if err := json.Unmarshal(got, &decoded); err != nil {
				t.Fatal(err)
			}
			for _, ref := range []struct {
				name string
				dto  resultsDTO
			}{{"decoded", decoded}, {"built", referenceDTO(r)}} {
				want, err := encodeReference(ref.dto)
				if err != nil {
					t.Fatal(err)
				}
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("%s reference: SaveResults differs at byte %d of %d/%d:\n got: …%s…\nwant: …%s…",
						ref.name, i, len(got), len(want), around(got, i), around(want, i))
				}
			}
			for _, section := range tc.sections {
				if !bytes.Contains(got, []byte(`"`+section+`": `)) {
					t.Errorf("no %s section", section)
				}
			}
			if tc.golden != "" {
				sum := md5.Sum(got)
				if md := hex.EncodeToString(sum[:]); md != tc.golden {
					t.Errorf("SaveResults md5 %s, want %s", md, tc.golden)
				}
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func around(b []byte, i int) []byte {
	return b[max(i-40, 0):min(i+40, len(b))]
}

// TestSaveResultsAllocs bounds SaveResults' allocations on the reference
// run. They do not grow with the number of points or hosts saved: the
// output buffer is allocated once and reused between writes.
func TestSaveResultsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference run")
	}
	r := runForSave(t, referenceConfig())
	allocs := testing.AllocsPerRun(5, func() {
		if err := SaveResults(io.Discard, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("SaveResults allocates %.0f objects on the reference run, want ≤ 1000", allocs)
	}
	t.Logf("SaveResults: %.0f allocs on the reference run", allocs)
}

// countingWriter counts the bytes written to it.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestSaveResultsErrorsBeforeFirstByte: a value encoding/json refuses
// fails SaveResults with json.Encoder's own error before anything reaches
// the writer, as it did when the whole document was marshalled first.
func TestSaveResultsErrorsBeforeFirstByte(t *testing.T) {
	at := time.Date(2010, 2, 19, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name  string
		spoil func(r *Results)
	}{
		{"cpu_min NaN", func(r *Results) { r.Hosts["h"].CPUMin = units.Celsius(math.NaN()) }},
		{"implied rate +Inf", func(r *Results) { r.ImpliedPageFailureRate = math.Inf(1) }},
		{"monitor coverage NaN", func(r *Results) { r.MonitorCoverage = math.NaN() }},
		{"tent energy -Inf", func(r *Results) { r.TentEnergy = units.KilowattHours(math.Inf(-1)) }},
		{"control setpoint NaN", func(r *Results) { r.Control.Setpoint = units.Celsius(math.NaN()) }},
		{"control RH max +Inf", func(r *Results) { r.Control.Envelope.RHMax = units.RelHumidity(math.Inf(1)) }},
		{"alert value NaN", func(r *Results) { r.Alerts.Timeline[0].Value = math.NaN() }},
		{"start year 10000", func(r *Results) { r.Start = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) }},
		{"event year -1", func(r *Results) { r.Events[0].At = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) }},
		{"transient zone +24h", func(r *Results) { r.Hosts["h"].Transients[0] = at.In(time.FixedZone("", 24*3600)) }},
		{"guard trip year 10000", func(r *Results) { r.Control.GuardTrips[0] = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := syntheticResults("h", 1.5, 2.5, at)
			tc.spoil(r)
			var w countingWriter
			err := SaveResults(&w, r)
			if err == nil {
				t.Fatal("SaveResults accepted the value")
			}
			if w.n != 0 {
				t.Errorf("%d bytes written before the error", w.n)
			}
			if _, want := encodeReference(referenceDTO(r)); want == nil || err.Error() != want.Error() {
				t.Errorf("error %q, json.Encoder's is %v", err, want)
			}
		})
	}
}

// failingWriter accepts its first write and fails every later one.
type failingWriter struct{ writes int }

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errDiskFull
	}
	return len(p), nil
}

// TestSaveResultsReportsWriteError: a document longer than one chunk
// reaches the writer in several writes, and the first failed write ends
// the save with its error.
func TestSaveResultsReportsWriteError(t *testing.T) {
	r := syntheticResults("h", 1.5, 2.5, time.Date(2010, 2, 19, 12, 0, 0, 0, time.UTC))
	r.OutsideTemp = timeseries.New("outside_temp", "°C")
	for i := 0; i < 2000; i++ {
		if err := r.OutsideTemp.Append(r.Start.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var w failingWriter
	if err := SaveResults(&w, r); !errors.Is(err, errDiskFull) {
		t.Fatalf("SaveResults returned %v, want %v", err, errDiskFull)
	}
	if w.writes != 2 {
		t.Errorf("%d writes, want the first chunk and the failed second", w.writes)
	}
}

// TestNonFiniteSeriesValuesRoundTrip: series values are %g strings, so
// NaN and ±Inf points save and load back.
func TestNonFiniteSeriesValuesRoundTrip(t *testing.T) {
	at := time.Date(2010, 2, 19, 12, 0, 0, 0, time.UTC)
	r := syntheticResults("h", math.NaN(), 2.5, at)
	r.InsideTemp = timeseries.New("inside_temp", "°C")
	vals := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	for i, v := range vals {
		if err := r.InsideTemp.Append(at.Add(time.Duration(i)*time.Minute), v); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := SaveResults(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := LoadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		got := back.InsideTemp.At(i).Value
		if math.Float64bits(got) != math.Float64bits(v) && !(math.IsNaN(got) && math.IsNaN(v)) {
			t.Errorf("point %d: %v loaded back as %v", i, v, got)
		}
	}
}

// syntheticResults is a small Results with every section of the schema
// filled: str goes into every string field, seriesV into every series,
// fieldV into every float field, and at (or a time after it) into every
// time field. The omitempty fields appear both filled and empty.
func syntheticResults(str string, seriesV, fieldV float64, at time.Time) *Results {
	series := func(name, unit string, vs ...float64) *timeseries.Series {
		s := timeseries.New(name, unit)
		for i, v := range vs {
			_ = s.Append(at.Add(time.Duration(i)*time.Second), v) // times increase: cannot fail
		}
		return s
	}
	ev := Event{At: at, Kind: EventKind(str), Subject: str, Detail: str}
	return &Results{
		Seed:          str,
		Start:         at,
		End:           at.Add(time.Hour),
		OutsideTemp:   series(str, str, seriesV, -seriesV, fieldV),
		OutsideRH:     series("outside_rh", "%"),
		InsideTemp:    series("inside_temp", "°C", seriesV),
		InsideRH:      series("inside_rh", "%", fieldV),
		InsideTempRaw: series(str, "", seriesV),
		Modifications: map[thermal.Modification]time.Time{thermal.ReflectiveFoil: at, thermal.InstallFan: at.Add(time.Hour)},
		Events:        []Event{ev, ev},
		Hosts: map[string]*HostReport{
			str: {
				ID: str, Vendor: hardware.Vendor(str), Location: hardware.Location(str),
				Relocated: true, InstalledAt: at, Cycles: 7,
				BadHashes: []workload.CycleResult{
					{HostID: str, At: at, MD5: workload.Digest{0xde, 0xad}, BadBlocks: []int{1, 2}, Blocks: 3},
					{HostID: str, At: at, OK: true, Blocks: 3},
				},
				Transients:  []time.Time{at},
				CPUMin:      units.Celsius(fieldV),
				CPUMax:      units.Celsius(fieldV),
				FailedDisks: []int{0},
				StorageLost: true,
			},
			"z": {ID: "z", Transients: []time.Time{}, FailedDisks: []int{}},
		},
		TentHostFailureRate: stats.Rate{Events: 1, Trials: 18},
		TotalCycles:         7,
		WrongHashes: []HashIncident{
			{HostID: str, Location: str, At: at, BadBlocks: []int{4}, Blocks: 5},
			{HostID: "z", At: at, BadBlocks: []int{}},
			{HostID: "z", At: at},
		},
		PagesTouched:           -3,
		ImpliedPageFailureRate: fieldV,
		SwitchFailures:         []Event{ev},
		MonitorCoverage:        fieldV,
		MonitorGaps:            []monitor.HostGap{{HostID: str, Collected: 2, Missed: 1, MissedRounds: []int{3}}},
		TentEnergy:             units.KilowattHours(fieldV),
		MeterLastReading:       units.Watts(fieldV),
		Control: &ControlReport{
			Mode:     str,
			Setpoint: units.Celsius(fieldV),
			Envelope: units.AshraeEnvelope{
				TempLow: units.Celsius(fieldV), TempHigh: 30, DewPointMax: 17, RHMax: units.RelHumidity(fieldV),
			},
			Stats:      control.Stats{Ticks: 3, DutyTicks: [control.NumDutyLevels]int{1, 2}},
			Setpoints:  series("setpoints", "°C", fieldV),
			PV:         series(str, str, seriesV),
			Damper:     series("damper", ""),
			Duty:       series("duty", "", 1),
			GuardTrips: []time.Time{at},
		},
		Alerts: &rules.Report{
			Evals:    1,
			Timeline: []rules.Event{{Seq: 1, At: at, Rule: str, Instance: str, Kind: rules.EvFiring, Value: fieldV}},
			Resolved: []rules.Incident{{ID: 1, Rule: str, Severity: str, PendingAt: at, FiredAt: at, ResolvedAt: at, Value: fieldV}},
			Digest:   str,
		},
	}
}

// FuzzSaveResults feeds SaveResults strings and floats that exercise
// every encoding/json escape and float format rule, and times of any year
// and zone, and requires either the reference encoder's bytes or, when
// the reference encoder fails too, an error before any byte is written.
func FuzzSaveResults(f *testing.F) {
	for _, s := range []string{"", "plain-01", "a<b", "a>b", "a&b", `say "hi"`, `back\slash`, "\x00\x1f\x7f", "°C", "\xff\xfe", "line\u2028sep\u2029", "\t\n\r"} {
		f.Add(s, 1.5, 2.5, int64(1266580800), int32(0))
	}
	for _, v := range []float64{math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 1e20, 5e-324, 2.2250738585072014e-308, math.NaN(), math.Inf(1), math.Inf(-1), 123456789.125} {
		f.Add("v", v, v, int64(1266580800), int32(3600))
		f.Add("v", v, 0.25, int64(-1), int32(-3600))
	}
	f.Add("y", 1.0, 1.0, int64(253402300800), int32(0))   // year 10000
	f.Add("y", 1.0, 1.0, int64(-62167219201), int32(0))   // year -1
	f.Add("z", 1.0, 1.0, int64(1266580800), int32(86400)) // zone +24:00
	f.Add("z", 1.0, 1.0, int64(1266580800), int32(-86399))
	f.Fuzz(func(t *testing.T, str string, seriesV, fieldV float64, unix int64, zone int32) {
		at := time.Unix(unix, 0).In(time.FixedZone("", int(zone)))
		r := syntheticResults(str, seriesV, fieldV, at)
		want, wantErr := encodeReference(referenceDTO(r))
		var buf bytes.Buffer
		err := SaveResults(&buf, r)
		switch {
		case wantErr != nil && err == nil:
			t.Fatalf("SaveResults accepted what json.Encoder refuses: %v", wantErr)
		case wantErr == nil && err != nil:
			t.Fatalf("SaveResults failed where json.Encoder did not: %v", err)
		case err != nil && buf.Len() != 0:
			t.Fatalf("%d bytes written before the error %v", buf.Len(), err)
		case err == nil:
			if i := firstDiff(buf.Bytes(), want); i >= 0 {
				t.Fatalf("differs at byte %d:\n got: …%q…\nwant: …%q…", i, around(buf.Bytes(), i), around(want, i))
			}
		}
	})
}
