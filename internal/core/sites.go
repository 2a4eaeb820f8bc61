package core

import (
	"fmt"
	"time"

	"frostlab/internal/climate"
	"frostlab/internal/control"
	"frostlab/internal/econ"
	"frostlab/internal/hardware"
	"frostlab/internal/thermal"
	"frostlab/internal/units"
	"frostlab/internal/weather"
	"frostlab/internal/workload"
)

// Multi-site fleet engine: N sites — each a tent-class enclosure with its
// own climate, electricity tariff, and closed-loop thermal controller —
// coupled by a placement policy that decides, every dispatch tick, where
// the fleet's tar+bzip2+md5 work-cycles run. This is the ROADMAP's
// "follow the cold" direction: the paper proved one site survives the
// winter; this engine asks what a fleet of such sites should do with that
// freedom.
//
// Unlike Experiment/NewSharded, which simulate one site's full physics
// (per-host failures, sensors, monitoring), the multi-site engine runs a
// deliberately coarser quasi-steady model per site — the same
// thermal.Tent heat balance, the same control.Controller, aggregate
// (not per-host) power — because the inter-site feedback loop (placement
// moves load, load moves heat, heat moves the controller, the controller
// moves safety, safety moves placement) must evaluate all sites at every
// tick. Sites are stepped sequentially in configuration order; the engine
// is single-goroutine by construction, so results are byte-identical at
// any GOMAXPROCS, and the warm tick holds the repo's 0-alloc budget.

// SiteConfig describes one site of a multi-site fleet.
type SiteConfig struct {
	// Name labels the site in results and figures.
	Name string
	// Climate names a scenario-library family (climate.Names), run at
	// the family's default parameters.
	Climate string
	// Tariff names an econ tariff preset (econ.TariffNames).
	Tariff string
	// Hosts is the number of machines installed at the site.
	Hosts int
}

// Every site shares the reference tent envelope (thermal.NewTent) and the
// default thermal controller (control.DefaultConfig); these
// constants fix the rest of the multi-site model.
const (
	// siteStep is the dispatch tick: the cadence at which work-cycles
	// complete.
	siteStep = workload.CyclePeriod
	// demandPerHost is the fleet's work demand in cycles per host per
	// dispatch tick: just under half the fleet busy, the E14
	// duty-cycling regime.
	demandPerHost = 0.45
	// capacityFactor derates a site's per-tick cycle capacity from its
	// host count.
	capacityFactor = 0.9
	// migrationCost is the energy surcharge per migrated work-cycle
	// (state transfer, cache warmup), charged to the receiving site.
	migrationCost units.KilowattHours = 0.02
	// fanWattsPerHost sizes a site's ventilation budget at damper 1
	// (cube-law below).
	fanWattsPerHost = 25
)

// MultiSiteConfig parameterises a multi-site run.
type MultiSiteConfig struct {
	// Seed is the master seed; every site derives its climate and tariff
	// streams from it.
	Seed string
	// Start and End bound the run.
	Start, End time.Time
	// Sites is the fleet, stepped and reported in this order.
	Sites []SiteConfig
	// Policy names the placement policy (control.Policies).
	Policy string
}

// DefaultMultiSiteConfig returns a three-site reference fleet — the
// paper's Helsinki plus a desert and a tropical site — under follow-cold
// placement over one simulated month.
func DefaultMultiSiteConfig(seed string) MultiSiteConfig {
	return MultiSiteConfig{
		Seed:  seed,
		Start: weather.ExperimentEpoch,
		End:   weather.ExperimentEpoch.AddDate(0, 0, 28),
		Sites: []SiteConfig{
			{Name: "helsinki", Climate: "helsinki", Tariff: "nordic-hydro", Hosts: 9},
			{Name: "desert", Climate: "desert", Tariff: "solar-duck", Hosts: 9},
			{Name: "tropical", Climate: "tropical", Tariff: "coal-peaker", Hosts: 9},
		},
		Policy: "follow-cold",
	}
}

// Validate checks the configuration.
func (c MultiSiteConfig) Validate() error {
	if c.Seed == "" {
		return fmt.Errorf("core: multi-site config needs a seed")
	}
	if !c.End.After(c.Start) {
		return fmt.Errorf("core: end %v not after start %v", c.End, c.Start)
	}
	if len(c.Sites) == 0 {
		return fmt.Errorf("core: multi-site config needs at least one site")
	}
	seen := map[string]bool{}
	for i, s := range c.Sites {
		if s.Name == "" {
			return fmt.Errorf("core: site %d needs a name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("core: duplicate site name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Hosts <= 0 {
			return fmt.Errorf("core: site %s needs hosts", s.Name)
		}
		if _, err := climate.Lookup(s.Climate); err != nil {
			return fmt.Errorf("core: site %s: %w", s.Name, err)
		}
		if _, err := econ.LookupTariff(s.Tariff); err != nil {
			return fmt.Errorf("core: site %s: %w", s.Name, err)
		}
	}
	if _, err := control.NewSitePolicy(c.Policy, len(c.Sites)); err != nil {
		return err
	}
	return nil
}

// siteState is one site's live simulation state.
type siteState struct {
	cfg     SiteConfig
	model   weather.Model
	tariff  econ.Source
	tent    *thermal.Tent
	ctl     *control.Controller
	meter   econ.Meter
	idleW   units.Watts // fleet idle draw
	spanW   units.Watts // fleet full-load draw minus idle
	maxFan  units.Watts
	envTick int // ticks with intake inside the allowable envelope
	// rates is the tariff at the current tick, evaluated once in phase 1
	// and reused for migration charges and the price trace.
	rates econ.Rates

	// Preallocated per-tick traces (capacity = tick count).
	intake   []float64
	damper   []float64
	assigned []float64
	price    []float64
}

// MultiSite is the multi-site fleet engine. Build with NewMultiSite, then
// call Run (or Step for tick-level control). Not safe for concurrent use.
type MultiSite struct {
	cfg    MultiSiteConfig
	sites  []siteState
	policy control.SitePolicy

	now    time.Time
	tick   int
	ticks  int
	demand float64 // cycles per tick, fleet-wide

	states     []control.SiteState
	prevAssign []float64
	nextAssign []float64
	demanded   float64
	shed       float64
	migrated   float64
}

// NewMultiSite validates the config and builds the engine.
func NewMultiSite(cfg MultiSiteConfig) (*MultiSite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ticks := int(cfg.End.Sub(cfg.Start) / siteStep)
	e := &MultiSite{
		cfg:        cfg,
		now:        cfg.Start,
		ticks:      ticks,
		sites:      make([]siteState, len(cfg.Sites)),
		states:     make([]control.SiteState, len(cfg.Sites)),
		prevAssign: make([]float64, len(cfg.Sites)),
		nextAssign: make([]float64, len(cfg.Sites)),
	}
	policy, err := control.NewSitePolicy(cfg.Policy, len(cfg.Sites))
	if err != nil {
		return nil, err
	}
	e.policy = policy

	var totalHosts int
	for i, sc := range cfg.Sites {
		s := &e.sites[i]
		s.cfg = sc
		totalHosts += sc.Hosts

		fam, err := climate.Lookup(sc.Climate)
		if err != nil {
			return nil, err
		}
		s.model, err = climate.New(sc.Climate, fam.Defaults, cfg.Start, cfg.Seed+"/site/"+sc.Name)
		if err != nil {
			return nil, err
		}
		tf, err := econ.LookupTariff(sc.Tariff)
		if err != nil {
			return nil, err
		}
		s.tariff, err = tf.Source(cfg.Start, cfg.Seed+"/site/"+sc.Name)
		if err != nil {
			return nil, err
		}
		s.tent = thermal.NewTent()
		ctlCfg := control.DefaultConfig()
		ctlCfg.Every = siteStep
		s.ctl, err = control.New(ctlCfg)
		if err != nil {
			return nil, err
		}
		// The site's machines: the synthetic vendor mix of the scale
		// engine, aggregated to fleet idle and span watts.
		fleet, err := hardware.SyntheticFleet(1, sc.Hosts, cfg.Seed+"/site/"+sc.Name)
		if err != nil {
			return nil, err
		}
		hosts := fleet.All()
		s.idleW = hardware.TotalPower(hosts, 0)
		s.spanW = hardware.TotalPower(hosts, 1) - s.idleW
		s.maxFan = units.Watts(fanWattsPerHost * sc.Hosts)

		s.intake = make([]float64, 0, ticks)
		s.damper = make([]float64, 0, ticks)
		s.assigned = make([]float64, 0, ticks)
		s.price = make([]float64, 0, ticks)
	}
	e.demand = demandPerHost * float64(totalHosts)
	return e, nil
}

// Ticks returns the total number of dispatch ticks in the configured run.
func (e *MultiSite) Ticks() int { return e.ticks }

// Step advances the fleet one dispatch tick. The warm path is
// allocation-free. It returns false once the horizon is reached.
func (e *MultiSite) Step() bool {
	if e.tick >= e.ticks {
		return false
	}
	at := e.now

	// Phase 1 — physics and thermal control per site, sequentially in
	// configuration order. Equipment power lags one tick (the heat being
	// dissipated now is last tick's placement).
	for i := range e.sites {
		s := &e.sites[i]
		cond := s.model.At(at)
		load := 0.0
		if h := float64(s.cfg.Hosts); h > 0 {
			load = e.prevAssign[i] / h
		}
		if load > 1 {
			load = 1
		}
		itW := s.idleW + units.Watts(load*float64(s.spanW))
		if err := s.tent.Step(siteStep, cond, itW); err != nil {
			// Step only fails on non-positive dt, and siteStep is
			// positive; fail loudly rather than silently drifting.
			panic("core: multi-site tent step: " + err.Error())
		}
		inside, insideRH := s.tent.Air()
		// The coolest powered surface rides above intake air with load.
		surface := inside + units.Celsius(2+4*load)
		out := s.ctl.Step(control.Inputs{
			Now:      at,
			Inside:   inside,
			InsideRH: insideRH,
			Outside:  cond.Temp,
			Surface:  surface,
		})
		s.tent.SetVentilation(out.Damper)

		rates := s.tariff.At(at)
		s.rates = rates
		inEnv := units.FrostAllowable.Contains(inside, insideRH)
		safe := !out.Guard && inEnv
		if inEnv {
			s.envTick++
		}

		// Marginal economics of one work-cycle here, now: one host at
		// full load for the tick, plus the cube-law vent overhead
		// amortised over the site's capacity.
		capacity := float64(s.cfg.Hosts) * capacityFactor
		switch out.Duty {
		case control.DutyThrottle:
			capacity *= 0.5
		case control.DutyMigrate:
			capacity *= 0.1
		}
		ventW := econ.VentPower(out.Damper, s.maxFan)
		h := siteStep.Hours()
		cycleKWh := float64(s.spanW) / float64(s.cfg.Hosts) * h / 1000
		if capacity > 0 {
			cycleKWh += float64(ventW) * h / 1000 / capacity
		}
		e.states[i] = control.SiteState{
			Intake:         inside,
			IntakeRH:       insideRH,
			Safe:           safe,
			Capacity:       capacity,
			CostPerCycle:   cycleKWh * rates.Price,
			CarbonPerCycle: cycleKWh * rates.Carbon,
		}

		// Meter this tick's energy at this tick's rates (load lags, rates
		// don't — the bill is settled on the spot price).
		s.meter.Accumulate(siteStep, itW, ventW, rates)
	}

	// Phase 2 — placement.
	shed := e.policy.Assign(e.states, e.demand, e.prevAssign, e.nextAssign)
	e.demanded += e.demand
	e.shed += shed

	// Migration accounting: paired flow between sites. Placement deltas
	// caused by shed changes are not migrations, so in/out are scaled to
	// their common paired volume — work cannot vanish in transit.
	var flowIn, flowOut float64
	for i := range e.sites {
		d := e.nextAssign[i] - e.prevAssign[i]
		if d > 0 {
			flowIn += d
		} else {
			flowOut -= d
		}
	}
	paired := flowIn
	if flowOut < paired {
		paired = flowOut
	}
	if e.tick == 0 {
		paired = 0 // initial placement is deployment, not migration
	}
	e.migrated += paired

	shedShare := shed / float64(len(e.sites))
	for i := range e.sites {
		s := &e.sites[i]
		s.meter.CyclesDone += e.nextAssign[i]
		s.meter.CyclesShed += shedShare
		if paired > 0 {
			d := e.nextAssign[i] - e.prevAssign[i]
			if d > 0 {
				in := d * paired / flowIn
				s.meter.CyclesIn += in
				s.meter.ChargeMigration(in, migrationCost, s.rates)
			} else if d < 0 {
				s.meter.CyclesOut += -d * paired / flowOut
			}
		}
		s.intake = append(s.intake, float64(e.states[i].Intake))
		s.damper = append(s.damper, e.ctlDamper(i))
		s.assigned = append(s.assigned, e.nextAssign[i])
		s.price = append(s.price, s.rates.Price)
	}
	copy(e.prevAssign, e.nextAssign)

	e.tick++
	e.now = e.now.Add(siteStep)
	return true
}

func (e *MultiSite) ctlDamper(i int) float64 { return e.sites[i].ctl.Damper() }

// Run steps the engine to its horizon and assembles the results.
func (e *MultiSite) Run() (*FleetResult, error) {
	for e.Step() {
	}
	return e.Results()
}

// Results assembles the results at the current tick (normally the
// horizon; partial results are valid after any tick).
func (e *MultiSite) Results() (*FleetResult, error) {
	r := &FleetResult{
		Policy:   e.cfg.Policy,
		Seed:     e.cfg.Seed,
		Start:    e.cfg.Start,
		End:      e.cfg.End,
		Step:     siteStep,
		Ticks:    e.tick,
		Demanded: e.demanded,
		Shed:     e.shed,
		Migrated: e.migrated,
	}
	meters := make([]econ.Meter, len(e.sites))
	for i := range e.sites {
		s := &e.sites[i]
		meters[i] = s.meter
		r.Sites = append(r.Sites, SiteResult{
			Name:          s.cfg.Name,
			Climate:       s.cfg.Climate,
			Tariff:        s.cfg.Tariff,
			Hosts:         s.cfg.Hosts,
			Meter:         s.meter,
			ControlStats:  s.ctl.Stats(),
			EnvelopeTicks: s.envTick,
			Intake:        s.intake,
			Damper:        s.damper,
			Assigned:      s.assigned,
			Price:         s.price,
		})
		r.TotalMeter.Merge(s.meter)
	}
	if err := econ.CheckConservation(meters, e.demanded, 1e-6*(1+e.demanded)); err != nil {
		return nil, err
	}
	return r, nil
}
