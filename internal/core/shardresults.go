package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"frostlab/internal/failure"
	"frostlab/internal/hardware"
	"frostlab/internal/stats"
	"frostlab/internal/thermal"
	"frostlab/internal/timeseries"
	"frostlab/internal/units"
	"frostlab/internal/workload"
)

// assemble reduces the shards' final state into Results. It runs
// single-threaded AFTER every shard has joined, and every reduction —
// event merge, per-host reports, energy and SMART sums, bad-hash
// sampling — walks hosts and tents in sorted fleet order, so the
// serialized output is byte-identical at any shard count and GOMAXPROCS.
//
// The scale model's deltas from the classic assembly, in one place:
//
//   - Outside series are the weather model sampled at StationInterval
//     with no sensor noise; inside series are tent 0's envelope at the
//     failure tick (the scale analog of the single Lascar logger), with
//     the raw series equal to the cleaned one (no readout outliers).
//   - There are no install events (the whole fleet is up at Start), no
//     monitoring plane, no sensor-chip forensics and no switches.
//   - Wrong hashes are Poisson end-of-run samples per host, drawn in
//     fleet order from one shared stream (rate = cycles × per-cycle
//     corruption probability) instead of per-cycle Bernoulli draws; ECC
//     hosts never corrupt, and each incident corrupts one synthetic
//     block.
//   - Per-host CPU extremes are the host's tent+spec envelope extremes.
func (e *ShardedExperiment) assemble() (*Results, error) {
	cfg := &e.cfg
	r := &Results{
		Seed:          cfg.Seed,
		Start:         cfg.Start,
		End:           cfg.End,
		Modifications: make(map[thermal.Modification]time.Time, len(e.mods)),
		Hosts:         make(map[string]*HostReport, len(e.ids)),
		CPUTemps:      make(map[string]*timeseries.Series),
	}

	// Environment series. The station samples the same pure weather
	// function the shards integrated against.
	r.OutsideTemp = timeseries.New("outside_temp", "°C")
	r.OutsideRH = timeseries.New("outside_rh", "%RH")
	wx := e.newWeather()
	for at := cfg.Start; !at.After(cfg.End); at = at.Add(stationInterval) {
		c := wx.At(at)
		if err := r.OutsideTemp.Append(at, float64(c.Temp)); err != nil {
			return nil, err
		}
		if err := r.OutsideRH.Append(at, float64(c.RH)); err != nil {
			return nil, err
		}
	}
	r.InsideTemp = timeseries.New("tent_inside_temp", "°C")
	r.InsideRH = timeseries.New("tent_inside_rh", "%RH")
	r.InsideTempRaw = timeseries.New("tent_inside_temp", "°C")
	for t := 0; t < e.numTicks; t++ {
		at := e.tickTime(int32(t))
		if err := r.InsideTemp.Append(at, e.loggerT[t]); err != nil {
			return nil, err
		}
		if err := r.InsideRH.Append(at, e.loggerRH[t]); err != nil {
			return nil, err
		}
		if err := r.InsideTempRaw.Append(at, e.loggerT[t]); err != nil {
			return nil, err
		}
	}

	// Events: modification calendar entries, then the shards' run events
	// merged on (tick, tent) — each tent is owned by exactly one shard
	// and each shard appends its events in simulation order, so the
	// merged order is independent of the shard count — then the bad-hash
	// incidents sampled below. The final stable sort by time interleaves
	// the three groups without disturbing each one's internal order.
	for _, ms := range e.mods {
		r.Modifications[ms.m] = ms.at
		r.Events = append(r.Events, Event{
			At: ms.at, Kind: EventModification, Subject: "tent",
			Detail: fmt.Sprintf("%v applied (%s)", ms.m, modName(ms.m)),
		})
	}
	var run []shardEvent
	for _, sh := range e.shards {
		run = append(run, sh.events...)
	}
	slices.SortStableFunc(run, func(a, b shardEvent) int {
		if c := cmp.Compare(a.tick, b.tick); c != 0 {
			return c
		}
		return cmp.Compare(a.tent, b.tent)
	})
	for _, sev := range run {
		r.Events = append(r.Events, e.renderEvent(sev))
	}

	// Per-host reports, cycle counts and Poisson bad-hash sampling, in
	// sorted fleet order.
	horizonTicks := int32(e.numTicks)
	blocks := int(cfg.WorkloadBytes) / cfg.WorkloadBlockSize
	// One shared stream, drawn in sorted fleet order by the
	// single-threaded assembly — same reasoning (and the same per-host
	// seeding cost being avoided) as the weak lottery.
	mem := e.master.Stream("scale/mem")
	var tentFailed int
	for i, id := range e.ids {
		ti, si := int(e.tentOf[i]), int(e.specOf[i])
		sp := &e.specs[si]
		onlineTicks := horizonTicks - e.offTicks[i]
		cycles := uint64(time.Duration(onlineTicks) * failureStep / workload.CyclePeriod)
		rep := &HostReport{
			ID:          id,
			Vendor:      sp.spec.Vendor,
			Location:    hardware.Tent,
			Relocated:   e.relocated[i],
			InstalledAt: e.installedAt[i],
			Cycles:      cycles,
			StorageLost: e.storageLost[i],
		}
		base := ti*e.nSpecs + si
		rep.CPUMin = units.Celsius(e.cpuMin[base])
		rep.CPUMax = units.Celsius(e.cpuMax[base])
		for k := 0; k < int(e.nTrans[i]) && k < 2; k++ {
			rep.Transients = append(rep.Transients, e.tickTime(e.transTick[2*i+k]))
		}
		dbase := i * e.nDisks
		for d := 0; d < sp.diskCount; d++ {
			if e.diskDead[dbase+d] {
				rep.FailedDisks = append(rep.FailedDisks, d)
				r.SMARTLongTestsFailed++
			} else {
				r.SMARTLongTestsPassed++
			}
		}
		if e.nTrans[i] > 0 {
			tentFailed++
		}
		r.TotalCycles += cycles

		if !sp.ecc {
			mean := float64(cycles) * failure.PageCorruptionProb(PaperPagesPerCycle)
			n := mem.Poisson(mean)
			ats := make([]time.Time, 0, n)
			for k := 0; k < n; k++ {
				sec := mem.Uniform(0, cfg.End.Sub(cfg.Start).Seconds())
				ats = append(ats, cfg.Start.Add(time.Duration(sec*float64(time.Second))))
			}
			sort.Slice(ats, func(a, b int) bool { return ats[a].Before(ats[b]) })
			for _, at := range ats {
				cr := workload.CycleResult{
					HostID:    id,
					At:        at,
					BadBlocks: []int{mem.Pick(blocks)},
					Blocks:    blocks,
				}
				rep.BadHashes = append(rep.BadHashes, cr)
				r.WrongHashes = append(r.WrongHashes, HashIncident{
					HostID:    id,
					Location:  locationLabel(hardware.Tent),
					At:        at,
					BadBlocks: cr.BadBlocks,
					Blocks:    blocks,
				})
				r.TentBadHash++
				r.Events = append(r.Events, Event{
					At: at, Kind: EventBadHash, Subject: id,
					Detail: fmt.Sprintf("wrong hash in tent; %d of %d blocks corrupt", len(cr.BadBlocks), blocks),
				})
			}
		}
		r.Hosts[id] = rep
	}
	slices.SortStableFunc(r.Events, func(a, b Event) int { return a.At.Compare(b.At) })

	r.TentHostFailureRate = stats.Rate{Events: tentFailed, Trials: len(e.ids)}
	r.ControlHostFailureRate = stats.Rate{}
	r.InitialHostFailureRate = r.TentHostFailureRate

	r.PagesTouched = int64(r.TotalCycles) * PaperPagesPerCycle
	if r.PagesTouched > 0 {
		r.ImpliedPageFailureRate = float64(len(r.WrongHashes)) / float64(r.PagesTouched)
	}

	var energy, lastPower float64
	for ti := range e.tentIDs {
		energy += e.tentEnergy[ti]
		lastPower += e.tentPower[ti]
	}
	r.TentEnergy = units.KilowattHours(energy)
	r.MeterLastReading = units.Watts(lastPower)
	return r, nil
}

// tickTime maps a failure tick index to its simulated instant.
func (e *ShardedExperiment) tickTime(t int32) time.Time {
	return e.cfg.Start.Add(time.Duration(t+1) * failureStep)
}

// renderEvent expands one compact run event into the classic log form.
func (e *ShardedExperiment) renderEvent(sev shardEvent) Event {
	id := e.ids[sev.host]
	at := e.tickTime(sev.tick)
	switch sev.kind {
	case sevTransient:
		return Event{At: at, Kind: EventTransient, Subject: id,
			Detail: fmt.Sprintf("system failure #%d in tent", sev.nth)}
	case sevRepair:
		return Event{At: at, Kind: EventRepair, Subject: id,
			Detail: "inspection and reset; no cause found; marked transient"}
	case sevRelocate:
		return Event{At: at, Kind: EventRelocation, Subject: id,
			Detail: "could not resume outside; taken indoors, stable since"}
	case sevDiskFailure:
		return Event{At: at, Kind: EventDiskFailure, Subject: id,
			Detail: fmt.Sprintf("disk %d failed; %s array degraded but serving",
				sev.disk, e.specs[e.specOf[sev.host]].layout)}
	default:
		return Event{At: at, Kind: EventStorageLost, Subject: id,
			Detail: fmt.Sprintf("disk %d failed; %s array lost, host down",
				sev.disk, e.specs[e.specOf[sev.host]].layout)}
	}
}
