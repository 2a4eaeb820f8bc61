package core

import (
	"context"
	"fmt"
	"math"
	randv2 "math/rand/v2"
	"sort"
	"sync"
	"time"

	"frostlab/internal/failure"
	"frostlab/internal/hardware"
	"frostlab/internal/simkernel"
	"frostlab/internal/telemetry"
	"frostlab/internal/thermal"
	"frostlab/internal/units"
	"frostlab/internal/weather"
)

// The sharded scale engine. The classic Experiment steps every host of the
// paper's 19-machine fleet through the full sensor/monitor/workload planes;
// that fidelity caps practical fleets near the paper's own size. This
// engine trades the per-host planes for a struct-of-arrays failure/thermal
// model that scales to 10k–100k hosts:
//
//   - Host state lives in parallel arrays (spec index, weak flag, online/
//     relocated/storage flags, transient ticks, disk liveness) indexed in
//     sorted fleet order, not in per-host structs.
//   - The determinism unit is the tent: every tent owns a named RNG stream
//     ("tent/"+id), a power sum, an energy accumulator and per-spec hazard
//     weights. A shard is a contiguous range of tents; shards share NOTHING
//     mutable, so they step the whole horizon in parallel with no barriers,
//     and results are bit-identical at any shard count and GOMAXPROCS.
//   - The tent envelope is the quasi-steady algebraic fixed point
//     (thermal.Tent.Equilibrium) instead of the minute-stepped integrator:
//     the envelope's ~20-minute time constant is short against the
//     15-minute failure tick, so the transient the integrator resolves is
//     already settled at the sampling cadence.
//   - Per tent-tick the engine makes ONE aggregated Bernoulli draw over the
//     pooled hazard H = Σ_spec mult·weight + hd·disks (exact first-event
//     probability -expm1(-H·dt)); only when it fires does it walk the
//     tent's hosts to resolve the victim. Cost per tick is O(tents), not
//     O(hosts).
//
// Everything the classic engine resolves per host per tick — individual
// Bernoulli draws, sensor-chip forensics, workload cycles, monitoring
// rounds — is either aggregated (failures, cycles, bad hashes) or out of
// scope (chips, monitoring); DESIGN.md § scale model spells out the
// deltas. The operational failure policy is the classic one: first
// transient repairs after RepairDelay, second relocates indoors for good,
// a lost storage array takes the host down permanently.

// maxShardEventsPerHost bounds the per-host event volume: ≤2 transients
// with their repair/relocation completions (4), ≤5 disk deaths and one
// storage loss (6). The event buffer is sized to this bound so the warm
// path never grows it.
const maxShardEventsPerHost = 10

// shardSpec is one machine model's precomputed scale-model calibration.
type shardSpec struct {
	spec      hardware.Spec
	profile   thermal.Profile // at the configured duty cycle
	power     float64         // watts at the configured duty cycle
	rateBase  float64         // healthy transient hazard /h
	rateWeak  float64         // weak-unit transient hazard /h
	diskCount int
	ecc       bool
	layout    hardware.StorageLayout
}

// shardEventKind codes a run-time event; rendering to Event strings is
// deferred to assembly so the warm path touches no strings.
type shardEventKind uint8

const (
	sevTransient shardEventKind = iota
	sevRepair
	sevRelocate
	sevDiskFailure
	sevStorageLost
)

// shardEvent is one recorded event: the tick it fired on, the global tent
// index (the deterministic merge key), the host, and kind-specific detail.
type shardEvent struct {
	tick int32
	tent int32
	host int32
	kind shardEventKind
	disk int8
	nth  uint8
}

// repairItem is one queued repair or relocation. The repair delay is
// constant, so the queue is FIFO-sorted by construction.
type repairItem struct {
	due      int32
	host     int32
	relocate bool
}

// shard is one worker's private slice of the fleet: a contiguous tent
// range plus everything mutable it needs to step it — its own weather
// model (the memo makes a shared Synthetic racy), its own envelope
// instance, event and repair buffers, and per-spec scratch.
type shard struct {
	e        *ShardedExperiment
	idx      int
	tlo, thi int32 // global tent range [tlo, thi)

	wx   weather.Model
	tent *thermal.Tent

	events  []shardEvent
	repairQ []repairItem
	qHead   int

	// mult and hd are the tick's per-spec stress multiplier and disk
	// hazard, kept for the rare victim walk.
	mult []float64
	hd   []float64

	prevOut  units.Celsius
	havePrev bool
	modIdx   int

	// busy is the shard's pre-resolved telemetry gauge (nil when not
	// instrumented).
	busy *telemetry.Gauge
}

// ShardedExperiment is a runnable scale reproduction over a tent-grouped
// fleet. Build with NewSharded.
type ShardedExperiment struct {
	cfg    Config
	master *simkernel.RNG
	specs  []shardSpec
	nSpecs int
	nDisks int // max disks across specs; stride of the disk arrays

	// Host SoA, indexed in sorted fleet order.
	ids         []string
	installedAt []time.Time
	tentOf      []int32
	specOf      []uint8
	weak        []bool
	online      []bool
	relocated   []bool
	storageLost []bool
	nTrans      []uint8
	transTick   []int32 // 2 per host; -1 = unused
	downTick    []int32 // tick the host went offline; -1 = online
	offTicks    []int32 // accumulated offline ticks
	diskDead    []bool  // nDisks per host
	aliveDisks  []uint8

	// Tent SoA, indexed in sorted fleet order of tent IDs.
	tentIDs    []string
	tentLo     []int32 // host range start
	tentHi     []int32
	tentRand   []*randv2.Rand
	weightW    []float64 // nSpecs per tent: Σ per-host base/weak rates
	diskCnt    []float64 // nSpecs per tent: alive disks on online hosts
	tentPower  []float64 // watts, online non-relocated hosts
	tentEnergy []float64 // kWh accumulator
	cpuMin     []float64 // nSpecs per tent
	cpuMax     []float64

	shards   []*shard
	numTicks int
	stepH    float64
	repairT  int32
	mods     []modSchedule

	// loggerT/loggerRH record tent 0's envelope per tick — the scale
	// analog of the paper's single Lascar logger.
	loggerT  []float64
	loggerRH []float64

	met *shardMetrics
	ran bool
}

// modSchedule is one envelope modification with its calendar date.
type modSchedule struct {
	m  thermal.Modification
	at time.Time
}

// NewSharded builds the scale engine over cfg.Fleet split into the given
// number of shards (clamped to [1, tents]). The fleet must be fully
// tent-grouped — every host in a tent with a TentID, as SyntheticFleet
// builds — installed by cfg.Start, with the monitoring plane off and no
// control plane; cfg.Weather must be nil or a weather.Cloner.
func NewSharded(cfg Config, shards int) (*ShardedExperiment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Control != nil {
		return nil, fmt.Errorf("core: the sharded scale engine is open-loop; Config.Control must be nil")
	}
	if cfg.MonitorEvery != 0 {
		return nil, fmt.Errorf("core: the sharded scale engine has no monitoring plane; set MonitorEvery to 0")
	}
	if cfg.Fleet == nil {
		return nil, fmt.Errorf("core: the sharded scale engine needs an explicit tent-grouped fleet (hardware.SyntheticFleet)")
	}
	if cfg.Weather != nil {
		if _, ok := cfg.Weather.(weather.Cloner); !ok {
			return nil, fmt.Errorf("core: sharded weather model %T must implement weather.Cloner", cfg.Weather)
		}
	}

	hosts := cfg.Fleet.All()
	if len(hosts) == 0 {
		return nil, fmt.Errorf("core: fleet is empty")
	}
	hosts = append([]*hardware.Host(nil), hosts...)
	sort.Slice(hosts, func(i, j int) bool { return hosts[i].ID < hosts[j].ID })

	e := &ShardedExperiment{
		cfg:    cfg,
		master: simkernel.NewRNG(cfg.Seed),
		stepH:  failureStep.Hours(),
	}
	e.numTicks = int(cfg.End.Sub(cfg.Start) / failureStep)
	e.repairT = int32((repairDelay + failureStep - 1) / failureStep)

	// Spec table: the distinct machine models, with hazard rates and the
	// duty-cycle thermal response precomputed.
	specIdx := map[hardware.Spec]int{}
	for _, h := range hosts {
		if h.Location != hardware.Tent || h.TentID == "" {
			return nil, fmt.Errorf("core: host %s is not tent-grouped; the scale engine shards by TentID", h.ID)
		}
		if h.InstalledAt.After(cfg.Start) {
			return nil, fmt.Errorf("core: host %s installs mid-run; the scale model installs the whole fleet at start", h.ID)
		}
		if _, ok := specIdx[h.Spec]; !ok {
			profile, err := thermal.NewProfile(
				h.Spec.Power(dutyCycle), h.Spec.CPUPower(dutyCycle), h.Spec.Airflow)
			if err != nil {
				return nil, fmt.Errorf("core: host %s thermal profile: %w", h.ID, err)
			}
			if profile.At(0).CaseAir <= 0 {
				// The scale model hard-codes Condensing=false on the
				// grounds that powered equipment runs warmer than intake
				// air (§5); a spec whose case runs colder would break that.
				return nil, fmt.Errorf("core: host %s case air not above intake; scale model requires warm equipment", h.ID)
			}
			specIdx[h.Spec] = len(e.specs)
			e.specs = append(e.specs, shardSpec{
				spec:      h.Spec,
				profile:   profile,
				power:     float64(h.Spec.Power(dutyCycle)),
				rateBase:  failure.BaseTransientPerHour,
				rateWeak:  failure.WeakTransientPerHour,
				diskCount: h.Spec.Layout.DiskCount(),
				ecc:       h.Spec.ECC,
				layout:    h.Spec.Layout,
			})
			if n := h.Spec.Layout.DiskCount(); n > e.nDisks {
				e.nDisks = n
			}
		}
	}
	e.nSpecs = len(e.specs)

	n := len(hosts)
	e.ids = make([]string, n)
	e.installedAt = make([]time.Time, n)
	e.tentOf = make([]int32, n)
	e.specOf = make([]uint8, n)
	e.weak = make([]bool, n)
	e.online = make([]bool, n)
	e.relocated = make([]bool, n)
	e.storageLost = make([]bool, n)
	e.nTrans = make([]uint8, n)
	e.transTick = make([]int32, 2*n)
	e.downTick = make([]int32, n)
	e.offTicks = make([]int32, n)
	e.diskDead = make([]bool, n*e.nDisks)
	e.aliveDisks = make([]uint8, n)

	weak := e.master.Stream("scale/weak")
	for i, h := range hosts {
		e.ids[i] = h.ID
		e.installedAt[i] = h.InstalledAt
		e.specOf[i] = uint8(specIdx[h.Spec])
		// The weak lottery draws ONE shared stream in sorted fleet order —
		// construction is single-threaded, so this is deterministic at any
		// shard count. (The classic engine's per-host "weak/"+id streams
		// would each pay math/rand's ~0.1ms seeding; at 100k hosts that is
		// the whole wall-clock budget.)
		e.weak[i] = weak.Bernoulli(failure.WeakFraction(h.Spec.KnownDefective))
		e.online[i] = true
		e.downTick[i] = -1
		e.transTick[2*i], e.transTick[2*i+1] = -1, -1
		e.aliveDisks[i] = uint8(h.Spec.Layout.DiskCount())
	}

	// Tent table: contiguous host ranges in sorted fleet order.
	for i := 0; i < n; {
		id := hosts[i].TentID
		lo := i
		for i < n && hosts[i].TentID == id {
			i++
		}
		ti := len(e.tentIDs)
		e.tentIDs = append(e.tentIDs, id)
		e.tentLo = append(e.tentLo, int32(lo))
		e.tentHi = append(e.tentHi, int32(i))
		e.tentRand = append(e.tentRand, e.master.PCGStream("tent/"+id))
		for j := lo; j < i; j++ {
			e.tentOf[j] = int32(ti)
		}
	}
	for ti, id := range e.tentIDs {
		for tj := ti + 1; tj < len(e.tentIDs); tj++ {
			if e.tentIDs[tj] == id {
				return nil, fmt.Errorf("core: tent %q is not contiguous in sorted fleet order", id)
			}
		}
	}

	tents := len(e.tentIDs)
	e.weightW = make([]float64, tents*e.nSpecs)
	e.diskCnt = make([]float64, tents*e.nSpecs)
	e.tentPower = make([]float64, tents)
	e.tentEnergy = make([]float64, tents)
	e.cpuMin = make([]float64, tents*e.nSpecs)
	e.cpuMax = make([]float64, tents*e.nSpecs)
	for i := range e.cpuMin {
		e.cpuMin[i] = math.Inf(1)
		e.cpuMax[i] = math.Inf(-1)
	}
	for i := 0; i < n; i++ {
		ti, si := int(e.tentOf[i]), int(e.specOf[i])
		sp := &e.specs[si]
		r := sp.rateBase
		if e.weak[i] {
			r = sp.rateWeak
		}
		e.weightW[ti*e.nSpecs+si] += r
		e.diskCnt[ti*e.nSpecs+si] += float64(sp.diskCount)
		e.tentPower[ti] += sp.power
	}

	// Modification calendar, sorted by date.
	for m, at := range cfg.Modifications {
		if at.Before(cfg.Start) || at.After(cfg.End) {
			continue
		}
		e.mods = append(e.mods, modSchedule{m: m, at: at})
	}
	sort.Slice(e.mods, func(i, j int) bool {
		if !e.mods[i].at.Equal(e.mods[j].at) {
			return e.mods[i].at.Before(e.mods[j].at)
		}
		return e.mods[i].m < e.mods[j].m
	})

	e.loggerT = make([]float64, e.numTicks)
	e.loggerRH = make([]float64, e.numTicks)

	if shards < 1 {
		shards = 1
	}
	if shards > tents {
		shards = tents
	}
	for k := 0; k < shards; k++ {
		tlo, thi := k*tents/shards, (k+1)*tents/shards
		hostsIn := int(e.tentHi[thi-1] - e.tentLo[tlo])
		sh := &shard{
			e:       e,
			idx:     k,
			tlo:     int32(tlo),
			thi:     int32(thi),
			wx:      e.newWeather(),
			events:  make([]shardEvent, 0, hostsIn*maxShardEventsPerHost+64),
			repairQ: make([]repairItem, 0, hostsIn),
			mult:    make([]float64, e.nSpecs),
			hd:      make([]float64, e.nSpecs),
			tent:    thermal.NewTent(),
		}
		e.shards = append(e.shards, sh)
	}
	return e, nil
}

// newWeather returns a private weather model for one shard (or for
// assembly): a fresh reference winter when the config leaves the model
// nil, a clone otherwise. Clones evaluate the identical pure function of
// time; only the memo is private.
func (e *ShardedExperiment) newWeather() weather.Model {
	if e.cfg.Weather == nil {
		return weather.ReferenceWinter0910(e.cfg.Seed)
	}
	return e.cfg.Weather.(weather.Cloner).CloneModel()
}

// Hosts returns the fleet size.
func (e *ShardedExperiment) Hosts() int { return len(e.ids) }

// Shards returns the number of shards the fleet was partitioned into.
func (e *ShardedExperiment) Shards() int { return len(e.shards) }

// Run executes the scale run and assembles Results.
func (e *ShardedExperiment) Run() (*Results, error) {
	return e.RunContext(context.Background())
}

// RunContext executes the scale run under a context. Shards step the full
// horizon concurrently — one goroutine each, no barriers — and the
// single-threaded reducer assembles Results in fixed fleet order, so the
// output is byte-identical at any shard count and GOMAXPROCS.
func (e *ShardedExperiment) RunContext(ctx context.Context) (*Results, error) {
	if e.ran {
		return nil, fmt.Errorf("core: sharded experiment already ran")
	}
	e.ran = true
	var wg sync.WaitGroup
	errs := make([]error, len(e.shards))
	for i, sh := range e.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = sh.run(ctx)
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	e.finalizeOffline()
	return e.assemble()
}

// run steps the shard's tents over the whole horizon.
func (s *shard) run(ctx context.Context) error {
	e := s.e
	busy, hist := s.busy, (*telemetry.Histogram)(nil)
	if e.met != nil {
		hist = e.met.stepDur
	}
	if busy != nil {
		busy.Set(1)
		defer busy.Set(0)
	}
	for t := 0; t < e.numTicks; t++ {
		if t&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// The duration histogram samples every 64th tick: reading the
		// clock per tick would alone cost more than the ≤5% overhead
		// budget on a fleet this engine steps in well under a second.
		timed := hist != nil && t&63 == 0
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		now := e.cfg.Start.Add(time.Duration(t+1) * failureStep)
		s.step(int32(t), now)
		if timed {
			hist.Observe(time.Since(t0).Seconds())
		}
		if hist != nil {
			e.met.ticks.Inc()
		}
	}
	return nil
}

// step advances the shard by one failure tick. The warm path — no event
// firing — performs zero allocations: pure array arithmetic, interned
// per-tent RNG streams, preallocated event and repair buffers.
func (s *shard) step(t int32, now time.Time) {
	e := s.e
	cfg := &e.cfg
	out := s.wx.At(now)
	var rate float64
	if s.havePrev {
		rate = math.Abs(float64(out.Temp-s.prevOut)) / e.stepH
	}
	s.prevOut, s.havePrev = out.Temp, true

	// Envelope modifications whose calendar date has passed.
	for s.modIdx < len(e.mods) && !e.mods[s.modIdx].at.After(now) {
		s.tent.Apply(e.mods[s.modIdx].m)
		s.modIdx++
	}

	// Repairs and relocations due this tick, before hazard sampling: the
	// classic scheduler fires the repair event before the failure tick at
	// the same instant reads the host.
	for s.qHead < len(s.repairQ) && s.repairQ[s.qHead].due == t {
		item := s.repairQ[s.qHead]
		s.qHead++
		s.complete(t, item)
	}

	eOut := units.VaporPressure(out.Temp, out.RH)
	for ti := s.tlo; ti < s.thi; ti++ {
		power := e.tentPower[ti]
		insideT := s.tent.Equilibrium(out, units.Watts(power))
		rh := units.RelHumidity(eOut / units.SaturationVaporPressure(insideT) * 100).Clamp()
		base := int(ti) * e.nSpecs
		var H float64
		for si := 0; si < e.nSpecs; si++ {
			sp := &e.specs[si]
			temps := sp.profile.At(insideT)
			if v := float64(temps.CPU); v < e.cpuMin[base+si] {
				e.cpuMin[base+si] = v
			}
			if v := float64(temps.CPU); v > e.cpuMax[base+si] {
				e.cpuMax[base+si] = v
			}
			// Condensing is false by construction: NewSharded verified
			// every spec's case air runs above intake, and a surface above
			// the air temperature is above its dew point.
			mult := failure.StressMultiplier(failure.Stress{
				Ambient:         insideT,
				RH:              rh,
				CaseAir:         temps.CaseAir,
				TempRatePerHour: rate,
			})
			hd := cfg.Disk.HazardPerHour(temps.Disk)
			s.mult[si] = mult
			s.hd[si] = hd
			H += mult*e.weightW[base+si] + hd*e.diskCnt[base+si]
		}
		e.tentEnergy[ti] += power / 1000 * e.stepH
		if ti == 0 {
			e.loggerT[t] = float64(insideT)
			e.loggerRH[t] = float64(rh)
		}
		if H > 0 {
			rnd := e.tentRand[ti]
			// Exact probability of ≥1 event in the tick for the pooled
			// hazard; at most one event per tent-tick is resolved (the
			// multi-event residual is O((H·dt)²), negligible at tent
			// scale).
			p := -math.Expm1(-H * e.stepH)
			if rnd.Float64() < p {
				s.fire(t, ti, rnd.Float64()*H)
			}
		}
	}
}

// fire resolves the victim of a pooled hazard draw: u is uniform in
// [0, H). Hosts are walked in fleet order accumulating transient hazards,
// then disks; the walk's accumulation can round differently from the
// pooled H, so a u landing in the last few ulps maps to no victim — a
// measure-zero, fully deterministic outcome.
func (s *shard) fire(t, ti int32, u float64) {
	e := s.e
	lo, hi := e.tentLo[ti], e.tentHi[ti]
	acc := 0.0
	for h := lo; h < hi; h++ {
		if !e.online[h] || e.relocated[h] {
			continue
		}
		si := e.specOf[h]
		sp := &e.specs[si]
		r := sp.rateBase
		if e.weak[h] {
			r = sp.rateWeak
		}
		acc += s.mult[si] * r
		if u < acc {
			s.transient(t, ti, h)
			return
		}
	}
	for h := lo; h < hi; h++ {
		if !e.online[h] || e.relocated[h] {
			continue
		}
		si := e.specOf[h]
		sp := &e.specs[si]
		dbase := int(h) * e.nDisks
		for d := 0; d < sp.diskCount; d++ {
			if e.diskDead[dbase+d] {
				continue
			}
			acc += s.hd[si]
			if u < acc {
				s.diskFail(t, ti, h, int8(d))
				return
			}
		}
	}
}

// goOffline removes a host from its tent's aggregates.
func (s *shard) goOffline(t, ti, h int32) {
	e := s.e
	si := e.specOf[h]
	sp := &e.specs[si]
	r := sp.rateBase
	if e.weak[h] {
		r = sp.rateWeak
	}
	base := int(ti)*e.nSpecs + int(si)
	e.weightW[base] -= r
	e.diskCnt[base] -= float64(e.aliveDisks[h])
	e.tentPower[ti] -= sp.power
	e.online[h] = false
	e.downTick[h] = t
}

// transient applies the paper's operational policy to a pooled transient.
func (s *shard) transient(t, ti, h int32) {
	e := s.e
	nth := e.nTrans[h] + 1
	e.nTrans[h] = nth
	if nth <= 2 {
		e.transTick[2*int(h)+int(nth)-1] = t
	}
	s.goOffline(t, ti, h)
	s.events = append(s.events, shardEvent{tick: t, tent: ti, host: h, kind: sevTransient, nth: nth})
	s.repairQ = append(s.repairQ, repairItem{due: t + e.repairT, host: h, relocate: nth >= 2})
}

// complete finishes a queued repair or relocation.
func (s *shard) complete(t int32, item repairItem) {
	e := s.e
	h := item.host
	ti := e.tentOf[h]
	if e.downTick[h] >= 0 {
		e.offTicks[h] += t - e.downTick[h]
		e.downTick[h] = -1
	}
	if item.relocate {
		// Taken indoors for good: back online (it keeps cycling) but out
		// of both experimental arms — never re-added to tent aggregates,
		// never sampled again.
		e.relocated[h] = true
		e.online[h] = true
		s.events = append(s.events, shardEvent{tick: t, tent: ti, host: h, kind: sevRelocate})
		return
	}
	si := e.specOf[h]
	sp := &e.specs[si]
	r := sp.rateBase
	if e.weak[h] {
		r = sp.rateWeak
	}
	base := int(ti)*e.nSpecs + int(si)
	e.weightW[base] += r
	e.diskCnt[base] += float64(e.aliveDisks[h])
	e.tentPower[ti] += sp.power
	e.online[h] = true
	s.events = append(s.events, shardEvent{tick: t, tent: ti, host: h, kind: sevRepair})
}

// diskFail kills one drive and cascades through the storage layout.
func (s *shard) diskFail(t, ti, h int32, d int8) {
	e := s.e
	si := e.specOf[h]
	sp := &e.specs[si]
	dbase := int(h) * e.nDisks
	e.diskDead[dbase+int(d)] = true
	e.aliveDisks[h]--
	e.diskCnt[int(ti)*e.nSpecs+int(si)]--
	var dead uint32
	for d2 := 0; d2 < sp.diskCount; d2++ {
		if e.diskDead[dbase+d2] {
			dead |= 1 << uint(d2)
		}
	}
	if sp.layout.SurvivesDiskMask(dead) {
		s.events = append(s.events, shardEvent{tick: t, tent: ti, host: h, kind: sevDiskFailure, disk: d})
		return
	}
	e.storageLost[h] = true
	s.goOffline(t, ti, h)
	s.events = append(s.events, shardEvent{tick: t, tent: ti, host: h, kind: sevStorageLost, disk: d})
}

// finalizeOffline closes the books on hosts still offline at the horizon
// (storage lost, or a repair due after the end).
func (e *ShardedExperiment) finalizeOffline() {
	for i := range e.ids {
		if !e.online[i] && e.downTick[i] >= 0 {
			e.offTicks[i] += int32(e.numTicks) - e.downTick[i]
			e.downTick[i] = -1
		}
	}
}
