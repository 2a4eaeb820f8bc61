package core

import (
	"time"

	"frostlab/internal/hardware"
	"frostlab/internal/monitor"
	"frostlab/internal/rules"
	"frostlab/internal/stats"
	"frostlab/internal/thermal"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
	"frostlab/internal/workload"
)

// HostReport summarises one machine's run.
type HostReport struct {
	ID       string
	Vendor   hardware.Vendor
	Location hardware.Location
	// Relocated reports whether the host ended the run indoors.
	Relocated   bool
	InstalledAt time.Time
	Cycles      uint64
	// BadHashes lists the wrong-md5sum incidents.
	BadHashes []workload.CycleResult
	// Transients lists system failure times.
	Transients []time.Time
	// CPUMin and CPUMax are the extreme computed die temperatures.
	CPUMin, CPUMax units.Celsius
	// ChipGlitched reports whether the lm-sensors chip entered the
	// §4.2.1 failure sequence.
	ChipGlitched bool
	// FailedDisks lists dead drive indices; StorageLost reports whether
	// the storage layout could no longer serve data.
	FailedDisks []int
	StorageLost bool
}

// HashIncident is one wrong-hash event, for the §4.2.2 table.
type HashIncident struct {
	HostID    string
	Location  string
	At        time.Time
	BadBlocks []int
	Blocks    int
}

// Results is everything the paper's figures and tables need.
type Results struct {
	Seed       string
	Start, End time.Time

	// OutsideTemp and OutsideRH come from the station (Fig. 3/4 upper
	// series); InsideTemp and InsideRH from the cleaned Lascar record
	// (lower series, starting at the logger's delivery).
	OutsideTemp, OutsideRH *timeseries.Series
	InsideTemp, InsideRH   *timeseries.Series
	// InsideTempRaw keeps the uncleaned logger record (with readout
	// outliers) for the data-cleaning ablation.
	InsideTempRaw *timeseries.Series

	// Modifications maps each applied envelope change to its date.
	Modifications map[thermal.Modification]time.Time

	Events []Event
	Hosts  map[string]*HostReport

	// TentHostFailureRate counts tent hosts with >= 1 transient over the
	// initially installed tent group; ControlHostFailureRate is the
	// basement arm. InitialHostFailureRate is the paper's headline 1/18.
	TentHostFailureRate    stats.Rate
	ControlHostFailureRate stats.Rate
	InitialHostFailureRate stats.Rate

	// TotalCycles and WrongHashes reproduce §4.2.2's "5 out of a total of
	// 27627 test runs".
	TotalCycles     uint64
	WrongHashes     []HashIncident
	TentBadHash     int
	BasementBadHash int

	// PagesTouched is the §4.2.2 accounting: cycles times pages per
	// cycle; ImpliedPageFailureRate is wrong hashes per page.
	PagesTouched           int64
	ImpliedPageFailureRate float64

	// SwitchFailures lists dead switches.
	SwitchFailures []Event

	// Monitoring summarises the collection plane. MonitorRounds counts
	// host collections, one per host per round that produced data; the
	// fleet's round count is the largest Rounds() in MonitorGaps. The
	// byte counts sum over the same collections.
	MonitorRounds       int
	MonitorLiteralBytes int
	MonitorTotalBytes   int

	// MonitorCoverage is the fleet-wide fraction of host-rounds that
	// produced data (1.0 = no gaps); MonitorGaps is the per-host gap
	// accounting, sorted by host ID.
	MonitorCoverage float64
	MonitorGaps     []monitor.HostGap

	// TentEnergy is the Technoline meter's accumulated tent-feed energy
	// (§3.3: "to gauge the amount of heat generated by the hardware").
	TentEnergy units.KilowattHours
	// MeterLastReading is the meter's final displayed draw.
	MeterLastReading units.Watts

	// SMARTLongTestsPassed and Failed are the end-of-run drive self-test
	// tallies; §4.2.2 reports that all drives passed theirs.
	SMARTLongTestsPassed int
	SMARTLongTestsFailed int

	// CPUTemps holds per-host lm-sensors records for tent hosts,
	// including any bogus −111 °C readings. Not serialised by
	// SaveResults (re-run to regenerate).
	CPUTemps map[string]*timeseries.Series

	// Control summarises the closed-loop control plane; nil for the
	// paper's open-loop runs.
	Control *ControlReport

	// Alerts is the sim-time rules engine's end-of-run report (incident
	// timeline, open/resolved incidents, eval counters); nil unless
	// Config.Rules was set.
	Alerts *rules.Report
}

// assembleResults builds the Results from the experiment's final state.
func (e *Experiment) assembleResults() (*Results, error) {
	r := &Results{
		Seed:          e.cfg.Seed,
		Start:         e.cfg.Start,
		End:           e.cfg.End,
		OutsideTemp:   e.station.Temp,
		OutsideRH:     e.station.RH,
		InsideTempRaw: e.lascar.Temp,
		Modifications: make(map[thermal.Modification]time.Time),
		Hosts:         make(map[string]*HostReport),
		Events:        append([]Event(nil), e.events...),
		CPUTemps:      make(map[string]*timeseries.Series),
	}
	for _, hs := range e.hosts {
		if hs.cpuSeries != nil {
			r.CPUTemps[hs.host.ID] = hs.cpuSeries
		}
	}
	r.InsideTemp, r.InsideRH = e.lascar.CleanedSeries()

	for m, at := range e.cfg.Modifications {
		if e.tent.Applied(m) {
			r.Modifications[m] = at
		}
	}

	var tentFailed, tentTotal, controlFailed, controlTotal, initialFailed int
	for _, hs := range e.hosts {
		if !hs.installed {
			continue
		}
		rep := &HostReport{
			ID:           hs.host.ID,
			Vendor:       hs.host.Spec.Vendor,
			Location:     hs.host.Location,
			Relocated:    hs.relocated,
			InstalledAt:  hs.host.InstalledAt,
			Cycles:       hs.cycles,
			BadHashes:    append([]workload.CycleResult(nil), hs.badHashes...),
			Transients:   append([]time.Time(nil), hs.transients...),
			CPUMin:       hs.cpuMin,
			CPUMax:       hs.cpuMax,
			ChipGlitched: hs.chipGlitchSeen,
			FailedDisks:  append([]int(nil), hs.failedDisks...),
			StorageLost:  hs.storageLost,
		}
		r.Hosts[hs.host.ID] = rep
		r.TotalCycles += hs.cycles

		failed := len(hs.transients) > 0
		switch hs.host.Location {
		case hardware.Tent:
			tentTotal++
			if failed {
				tentFailed++
			}
		case hardware.Basement:
			controlTotal++
			if failed {
				controlFailed++
			}
		}
		if hs.host.ReplacementFor == "" && failed {
			initialFailed++
		}
		for _, bh := range hs.badHashes {
			r.WrongHashes = append(r.WrongHashes, HashIncident{
				HostID:    hs.host.ID,
				Location:  locationLabel(hs.host.Location),
				At:        bh.At,
				BadBlocks: bh.BadBlocks,
				Blocks:    bh.Blocks,
			})
			if hs.host.Location == hardware.Tent {
				r.TentBadHash++
			} else {
				r.BasementBadHash++
			}
		}
	}
	r.TentHostFailureRate = stats.Rate{Events: tentFailed, Trials: tentTotal}
	r.ControlHostFailureRate = stats.Rate{Events: controlFailed, Trials: controlTotal}
	// The paper's 5.6% counts the initially installed 18 hosts.
	r.InitialHostFailureRate = stats.Rate{Events: initialFailed, Trials: tentTotal + controlTotal - countReplacements(e)}

	r.PagesTouched = int64(r.TotalCycles) * PaperPagesPerCycle
	if r.PagesTouched > 0 {
		r.ImpliedPageFailureRate = float64(len(r.WrongHashes)) / float64(r.PagesTouched)
	}

	for _, ev := range e.events {
		if ev.Kind == EventSwitchFailure {
			r.SwitchFailures = append(r.SwitchFailures, ev)
		}
	}

	r.MonitorRounds, r.MonitorLiteralBytes, r.MonitorTotalBytes = e.coll.Totals()
	r.MonitorCoverage = e.gaps.Coverage()
	r.MonitorGaps = e.gaps.Hosts()

	r.TentEnergy = e.meter.Energy()
	r.MeterLastReading = e.meter.Last()

	if e.ctl != nil {
		r.Control = e.assembleControlReport()
	}
	if e.alerts != nil {
		r.Alerts = e.alerts.Report()
	}

	// §4.2.2's closing check: run every installed drive's long self-test.
	for _, hs := range e.hosts {
		if !hs.installed {
			continue
		}
		for _, d := range hs.disks {
			if d.LongTest() {
				r.SMARTLongTestsPassed++
			} else {
				r.SMARTLongTestsFailed++
			}
		}
	}
	return r, nil
}

func countReplacements(e *Experiment) int {
	n := 0
	for _, hs := range e.hosts {
		if hs.installed && hs.host.ReplacementFor != "" {
			n++
		}
	}
	return n
}

func locationLabel(l hardware.Location) string {
	switch l {
	case hardware.Tent:
		return "tent (outside)"
	case hardware.Basement:
		return "basement (control)"
	default:
		return string(l)
	}
}

// GapLedger exposes the monitoring plane's coverage ledger.
func (e *Experiment) GapLedger() *monitor.GapLedger {
	return e.gaps
}

// Mirror exposes the monitoring host's mirrored copy of one host's logs,
// for inspection after a run.
func (e *Experiment) Mirror(hostID string) *monitor.FileStore {
	return e.coll.Mirror(hostID)
}
