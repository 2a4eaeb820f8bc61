package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"frostlab/internal/campaign"
	"frostlab/internal/core"
	"frostlab/internal/econ"
	"frostlab/internal/hardware"
	"frostlab/internal/report"
	"frostlab/internal/rules"
	"frostlab/internal/telemetry"
	"frostlab/internal/weather"
	"frostlab/internal/workload"
)

// Workload shapes. The campaign and the sharded engine both run workers
// wide; their outputs do not depend on it.
const (
	monitoredDays     = 7 // the monitor plane's cost grows with the mirrored logs; see README
	campaignReps      = 32
	campaignDays      = 4
	econCells         = 12 // 3 policies x 2 climate sets x 2 price regimes
	scaleTents        = 112
	scaleHostsPerTent = 90
)

// workloadDef is one benchmark workload. A unit is what one call runs and
// digests: a single op for the per-run workloads, a whole campaign or
// sweep (opsPerUnit replicates or cells) for the others.
type workloadDef struct {
	name string
	// anchor is the check unit's digest at the reference seed, measured
	// on the code this benchmark was defined against.
	anchor     string
	opsPerUnit int
	// days is the default horizon; 0 keeps the engine's own.
	days  int
	setup func(u unitCtx) error
	unit  func(u unitCtx) (unitResult, error)
	// packProbe, when set, times generating and packing the source trees
	// the unit's engine builds at install (traced runs only).
	packProbe func(u unitCtx) (time.Duration, error)
}

var workloads = []workloadDef{
	{
		// The paper's reference run with the monitoring plane off: the
		// anchored recipe, and the ROADMAP's "reference run ms/op".
		name:       "paper-open",
		anchor:     "8e0826989f4f48725cd63e85be20a0da",
		opsPerUnit: 1,
		setup:      classicSetup(false),
		unit:       classicUnit(false),
		packProbe:  classicPackProbe(false),
	},
	{
		// The same engine at the paper's §3.5 setting: 20-minute rsync
		// rounds and the default alert rules, where the monitor plane
		// does most of the work.
		name: "paper-monitored",
		anchor: "56613107d0be109663a956030a7303fd/" +
			"e95ec740eb1958ae1cec41e91ff48afe8c79583aaff9bf46d49b5798bbfcf1d2",
		opsPerUnit: 1,
		days:       monitoredDays,
		setup:      classicSetup(true),
		unit:       classicUnit(true),
		packProbe:  classicPackProbe(true),
	},
	{
		// Short Monte-Carlo replicates across the worker pool: install-time
		// tree generation and packing dominate.
		name:       "campaign-short",
		anchor:     "20be842e5997ca9bab56f8150929b76c",
		opsPerUnit: campaignReps,
		days:       campaignDays,
		setup:      campaignSetup,
		unit:       campaignUnit,
		packProbe:  campaignPackProbe,
	},
	{
		// The struct-of-arrays engine over a 10,080-host synthetic fleet:
		// serialisation dominates here and only here.
		name:       "scale-10k",
		anchor:     "3c2f4ca919a21b730b3255a32806c178",
		opsPerUnit: 1,
		setup:      scaleSetup,
		unit:       scaleUnit,
	},
	{
		// The E17 multi-site sweep: climate, control and econ, but no
		// per-host failures, packing or monitor.
		name:       "sites-econ",
		anchor:     "78230808af470362704333dd269cb66b",
		opsPerUnit: econCells,
		setup:      econSetup,
		unit:       econUnit,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// unitCtx is one unit's inputs. traced attaches the weather wrapper and
// registry and fills unitResult.layers; tr, when set, records spans.
type unitCtx struct {
	seed   string
	days   int
	traced bool
	tr     *tracer
}

// unitResult is one unit's outcome.
type unitResult struct {
	digest    string
	ops       []float64 // host seconds per op
	wall      float64   // host seconds of the whole unit
	hostHours float64   // simulated host-hours the unit covered
	layers    map[string]float64
	err       error
	// scale turns the unit's host seconds into reference seconds; the
	// run loop sets it from the calibration passes around the unit.
	scale float64
}

// runUnit runs one unit of w, turning a panic into a failed unit, and adds
// the layer values every workload shares.
func runUnit(w workloadDef, u unitCtx) (res unitResult) {
	defer func() {
		if p := recover(); p != nil {
			res = unitResult{err: fmt.Errorf("panic: %v", p)}
		}
	}()
	var ms0, ms1 runtime.MemStats
	if u.traced {
		runtime.ReadMemStats(&ms0)
	}
	res, err := w.unit(u)
	if err != nil {
		return unitResult{err: err}
	}
	if !u.traced {
		return res
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(res.ops))
	res.layers["go.mallocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	res.layers["go.gc_per_op"] = float64(ms1.NumGC-ms0.NumGC) / n
	if w.packProbe != nil {
		d, err := w.packProbe(u)
		if err != nil {
			return unitResult{err: fmt.Errorf("pack probe: %w", err)}
		}
		res.layers["workload.pack_share"] = d.Seconds() / res.layers["engine.run_s"]
	}
	return res
}

// referenceHosts is the paper fleet's size, the host count of every
// classic and campaign run.
var referenceHosts = sync.OnceValue(func() int {
	f, err := hardware.ReferenceFleet()
	if err != nil {
		panic(err)
	}
	return len(f.All())
})

// withDays shortens cfg to days when days > 0.
func withDays(cfg core.Config, days int) core.Config {
	if days > 0 {
		cfg.End = cfg.Start.AddDate(0, 0, days)
	}
	return cfg
}

func classicConfig(seed string, days int, monitored bool) core.Config {
	cfg := withDays(core.DefaultConfig(seed), days)
	cfg.MonitorEvery = 0
	if monitored {
		cfg.MonitorEvery = 20 * time.Minute
		cfg.Rules = rules.Default()
	}
	return cfg
}

func classicSetup(monitored bool) func(unitCtx) error {
	return func(u unitCtx) error {
		_, err := core.New(classicConfig(u.seed, u.days, monitored))
		return err
	}
}

// classicUnit is one per-host engine op: New → Run → SaveResults → md5.
func classicUnit(monitored bool) func(unitCtx) (unitResult, error) {
	return func(u unitCtx) (unitResult, error) {
		var (
			cfg core.Config
			wx  *timedWeather
			reg *telemetry.Registry
		)
		p, err := timeOp(u, func() (runner, error) {
			cfg = classicConfig(u.seed, u.days, monitored)
			if u.traced {
				wx = newTimedWeather(weather.ReferenceWinter0910(cfg.Seed))
				cfg.Weather = wx
			}
			exp, err := core.New(cfg)
			if err == nil && u.traced {
				reg = telemetry.NewRegistry()
				exp.InstrumentTelemetry(reg)
			}
			return exp, err
		})
		if err != nil {
			return unitResult{}, err
		}
		r, digest := p.r, p.digest
		if r.TotalCycles == 0 || len(r.Hosts) == 0 {
			return unitResult{}, fmt.Errorf("seed %s: empty run (%d cycles, %d hosts)", u.seed, r.TotalCycles, len(r.Hosts))
		}
		if monitored {
			if r.Alerts == nil || r.MonitorRounds == 0 {
				return unitResult{}, fmt.Errorf("seed %s: monitored run has no rounds or alert report", u.seed)
			}
			digest += "/" + r.Alerts.Digest
		}
		hh := float64(referenceHosts()) * cfg.End.Sub(cfg.Start).Hours()
		res := unitResult{digest: digest, ops: []float64{p.opS}, wall: p.opS, hostHours: hh}
		if !u.traced {
			return res, nil
		}
		c, err := counters(reg)
		if err != nil {
			return unitResult{}, err
		}
		installs := 0
		for _, ev := range r.Events {
			if ev.Kind == core.EventInstall {
				installs++
			}
		}
		res.layers = map[string]float64{
			"engine.run_s":            p.runS,
			"engine.ns_per_host_hour": p.runS * 1e9 / hh,
			"output.save_s":           p.saveS,
			"core.save_mb":            float64(p.size) / 1e6,
			"core.events":             float64(len(r.Events)),
			"weather.calls":           float64(wx.calls.Load()),
			"weather.share":           wx.busySeconds() / p.runS,
			"simkernel.events":        c["frostlab_sim_events_fired_total"],
			"workload.installs":       float64(installs),
			"workload.cycles":         float64(r.TotalCycles),
			"workload.bad_hashes":     float64(len(r.WrongHashes)),
		}
		if monitored {
			res.layers["monitor.rounds"] = c["frostlab_monitor_rounds_total"]
			res.layers["monitor.host_collections"] = c["frostlab_monitor_host_collections_total"]
			res.layers["monitor.host_misses"] = c["frostlab_monitor_host_misses_total"]
			res.layers["monitor.literal_mb"] = float64(r.MonitorLiteralBytes) / 1e6
			res.layers["monitor.total_mb"] = float64(r.MonitorTotalBytes) / 1e6
			res.layers["monitor.literal_ratio"] = float64(r.MonitorLiteralBytes) / float64(r.MonitorTotalBytes)
			res.layers["monitor.coverage"] = r.MonitorCoverage
			res.layers["rules.evals"] = float64(r.Alerts.Evals)
			res.layers["rules.transitions"] = float64(r.Alerts.Transitions)
			res.layers["rules.incidents"] = float64(r.Alerts.IncidentsTotal)
		}
		return res, nil
	}
}

// runner is what both per-run engines, classic and sharded, offer.
type runner interface {
	Run() (*core.Results, error)
}

// perRun is one timed per-run op.
type perRun struct {
	r                *core.Results
	digest           string
	size             int // bytes SaveResults wrote
	runS, saveS, opS float64
}

// timeOp runs one per-run op under spans: build (inputs and the engine's
// constructor), Run, SaveResults, and md5 of the saved bytes.
func timeOp(u unitCtx, build func() (runner, error)) (perRun, error) {
	var p perRun
	op := u.tr.newOp()
	t0 := time.Now()
	root := u.tr.begin("op", op, -1)
	sp := u.tr.begin("core.new", op, root)
	exp, err := build()
	u.tr.end(sp)
	if err != nil {
		return p, err
	}
	sp = u.tr.begin("core.run", op, root)
	tRun := time.Now()
	p.r, err = exp.Run()
	p.runS = time.Since(tRun).Seconds()
	u.tr.end(sp)
	if err != nil {
		return p, err
	}
	tSave := time.Now()
	sp = u.tr.begin("core.save", op, root)
	var buf bytes.Buffer
	err = core.SaveResults(&buf, p.r)
	u.tr.end(sp)
	if err != nil {
		return p, err
	}
	sp = u.tr.begin("bench.md5", op, root)
	p.digest = hexMD5(buf.Bytes())
	u.tr.end(sp)
	u.tr.end(root)
	p.size = buf.Len()
	p.saveS = time.Since(tSave).Seconds()
	p.opS = time.Since(t0).Seconds()
	return p, nil
}

func classicPackProbe(monitored bool) func(unitCtx) (time.Duration, error) {
	return func(u unitCtx) (time.Duration, error) {
		return packProbe(classicConfig(u.seed, u.days, monitored))
	}
}

// packProbe generates and packs each distinct source tree a classic run of
// cfg builds at install — one per host installed by the horizon, basement
// twins sharing their tent partner's — and returns the time it took.
func packProbe(cfg core.Config) (time.Duration, error) {
	fleet, err := hardware.ReferenceFleet()
	if err != nil {
		return 0, err
	}
	seen := map[string]bool{}
	t0 := time.Now()
	for _, h := range fleet.All() {
		id := h.ID
		if h.TwinID != "" && h.Location == hardware.Basement {
			id = h.TwinID
		}
		if h.InstalledAt.After(cfg.End) || seen[id] {
			continue
		}
		seen[id] = true
		tree, err := workload.GenerateTree(cfg.Seed+"/tree/"+id, cfg.WorkloadFiles, cfg.WorkloadBytes)
		if err != nil {
			return 0, err
		}
		if _, _, err := workload.Pack(tree, cfg.WorkloadBlockSize); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// campaignRepConfig is the configuration the campaign builds for
// replicate rep (no sweep axes, monitoring off).
func campaignRepConfig(seed string, rep, days int) core.Config {
	cfg := withDays(core.DefaultConfig(campaign.RepSeed(seed, rep)), days)
	cfg.MonitorEvery = 0
	return cfg
}

func campaignSetup(u unitCtx) error {
	_, err := core.New(campaignRepConfig(u.seed, 0, u.days))
	return err
}

func campaignPackProbe(u unitCtx) (time.Duration, error) {
	return packProbe(campaignRepConfig(u.seed, 0, u.days))
}

// campaignUnit runs one campaign; each replicate is an op, timed from
// Spec.Mutate (its configuration is built) to Spec.Progress (its summary
// is collected). The digest is the md5 of the rendered campaign report.
func campaignUnit(u unitCtx) (unitResult, error) {
	var (
		mu        sync.Mutex
		starts    = make(map[int]time.Time, campaignReps)
		wx        []*timedWeather
		ops       []float64
		lastDone  time.Time
		cycles    uint64
		badHashes int
		repErr    error
	)
	t0 := time.Now()
	unitOp := u.tr.newOp()
	root := u.tr.begin("campaign.run", unitOp, -1)
	spec := campaign.Spec{
		Seed:    u.seed,
		Reps:    campaignReps,
		Workers: workers,
		Days:    u.days,
		Mutate: func(rep int, cfg *core.Config) {
			start := time.Now()
			mu.Lock()
			defer mu.Unlock()
			starts[rep] = start
			if u.traced {
				w := newTimedWeather(weather.ReferenceWinter0910(cfg.Seed))
				cfg.Weather = w
				wx = append(wx, w)
			}
		},
		Progress: func(done, total int, rs campaign.RunSummary) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			lastDone = now
			if rs.Err != "" || rs.TotalCycles == 0 {
				if repErr == nil {
					repErr = fmt.Errorf("seed %s replicate %d failed (%d cycles): %s", u.seed, rs.Rep, rs.TotalCycles, rs.Err)
				}
				return
			}
			start := starts[rs.Rep]
			ops = append(ops, now.Sub(start).Seconds())
			u.tr.add("campaign.rep", u.tr.newOp(), root, start, now.Sub(start))
			cycles += rs.TotalCycles
			badHashes += rs.WrongHashes
		},
	}
	sum, err := campaign.Run(context.Background(), spec)
	runEnd := time.Now()
	if err != nil {
		return unitResult{}, err
	}
	sp := u.tr.begin("campaign.report", unitOp, root)
	digest := hexMD5([]byte(report.Campaign(sum)))
	u.tr.end(sp)
	u.tr.end(root)
	end := time.Now()

	if repErr != nil {
		return unitResult{}, repErr
	}
	if sum.Completed != campaignReps || sum.Failed != 0 {
		return unitResult{}, fmt.Errorf("seed %s: campaign completed %d failed %d, want %d/0", u.seed, sum.Completed, sum.Failed, campaignReps)
	}
	hours := float64(u.days) * 24
	res := unitResult{
		digest:    digest,
		ops:       ops,
		wall:      end.Sub(t0).Seconds(),
		hostHours: float64(campaignReps*referenceHosts()) * hours,
	}
	if !u.traced {
		return res, nil
	}
	var calls int64
	var busy, repSum float64
	for _, w := range wx {
		calls += w.calls.Load()
		busy += w.busySeconds()
	}
	for _, s := range ops {
		repSum += s
	}
	reps := float64(campaignReps)
	repMedian := median(ops)
	res.layers = map[string]float64{
		"engine.run_s":             repMedian,
		"engine.ns_per_host_hour":  repMedian * 1e9 / (float64(referenceHosts()) * hours),
		"output.save_s":            end.Sub(lastDone).Seconds() / reps,
		"weather.calls":            float64(calls) / reps,
		"weather.share":            busy / repSum,
		"workload.cycles":          float64(cycles) / reps,
		"workload.bad_hashes":      float64(badHashes) / reps,
		"campaign.busy_frac":       repSum / (runEnd.Sub(t0).Seconds() * workers),
		"campaign.aggregate_share": runEnd.Sub(lastDone).Seconds() / res.wall,
	}
	return res, nil
}

func scaleConfig(seed string, days int) (core.Config, error) {
	fleet, err := hardware.SyntheticFleet(scaleTents, scaleHostsPerTent, "scale-"+seed)
	if err != nil {
		return core.Config{}, err
	}
	cfg := withDays(core.DefaultConfig(seed), days)
	cfg.Fleet = fleet
	cfg.MonitorEvery = 0
	return cfg, nil
}

func scaleSetup(u unitCtx) error {
	cfg, err := scaleConfig(u.seed, u.days)
	if err != nil {
		return err
	}
	_, err = core.NewSharded(cfg, workers)
	return err
}

// scaleUnit is one sharded-engine op: SyntheticFleet → NewSharded → Run →
// SaveResults → md5.
func scaleUnit(u unitCtx) (unitResult, error) {
	var (
		cfg   core.Config
		wx    *timedWeather
		hosts int
	)
	p, err := timeOp(u, func() (runner, error) {
		var err error
		if cfg, err = scaleConfig(u.seed, u.days); err != nil {
			return nil, err
		}
		if u.traced {
			wx = newTimedWeather(weather.ReferenceWinter0910(cfg.Seed))
			cfg.Weather = wx
		}
		exp, err := core.NewSharded(cfg, workers)
		if err != nil {
			return nil, err
		}
		hosts = exp.Hosts()
		return exp, nil
	})
	if err != nil {
		return unitResult{}, err
	}
	if want := scaleTents * scaleHostsPerTent; len(p.r.Hosts) != want {
		return unitResult{}, fmt.Errorf("seed %s: %d hosts in results, want %d", u.seed, len(p.r.Hosts), want)
	}
	hh := float64(hosts) * cfg.End.Sub(cfg.Start).Hours()
	res := unitResult{digest: p.digest, ops: []float64{p.opS}, wall: p.opS, hostHours: hh}
	if u.traced {
		res.layers = map[string]float64{
			"engine.run_s":            p.runS,
			"engine.ns_per_host_hour": p.runS * 1e9 / hh,
			"output.save_s":           p.saveS,
			"core.save_mb":            float64(p.size) / 1e6,
			"core.events":             float64(len(p.r.Events)),
			"weather.calls":           float64(wx.calls.Load()),
			// The shards call the model concurrently; share is per shard.
			"weather.share": wx.busySeconds() / (p.runS * workers),
		}
	}
	return res, nil
}

func econSetup(u unitCtx) error {
	cfg := core.DefaultMultiSiteConfig(u.seed)
	if u.days > 0 {
		cfg.End = cfg.Start.AddDate(0, 0, u.days)
	}
	_, err := core.NewMultiSite(cfg)
	return err
}

// econUnit runs one E17 sweep; each cell is an op, timed as the gap
// between successive EconSpec.Progress calls. The digest is the sweep's.
func econUnit(u unitCtx) (unitResult, error) {
	var (
		ops       []float64
		hostHours float64
		siteTicks int
		cellErr   error
	)
	spec := campaign.DefaultEconSpec(u.seed)
	spec.Days = u.days
	t0 := time.Now()
	unitOp := u.tr.newOp()
	root := u.tr.begin("econ.sweep", unitOp, -1)
	prev := t0
	spec.Progress = func(done, total int, cell *campaign.EconCell) {
		now := time.Now()
		ops = append(ops, now.Sub(prev).Seconds())
		u.tr.add("econ.cell", u.tr.newOp(), root, prev, now.Sub(prev))
		prev = now
		r := cell.Result
		meters := make([]econ.Meter, len(r.Sites))
		for i, s := range r.Sites {
			meters[i] = s.Meter
			hostHours += float64(s.Hosts) * r.End.Sub(r.Start).Hours()
		}
		siteTicks += r.Ticks * len(r.Sites)
		if err := econ.CheckConservation(meters, r.Demanded, 1e-6*(1+r.Demanded)); err != nil && cellErr == nil {
			cellErr = fmt.Errorf("seed %s cell %s: %w", u.seed, cell.Label, err)
		}
	}
	sum, err := campaign.RunEcon(spec)
	if err != nil {
		return unitResult{}, err
	}
	lastDone := prev
	sp := u.tr.begin("econ.digest", unitOp, root)
	digest := sum.Digest()
	u.tr.end(sp)
	u.tr.end(root)
	end := time.Now()

	if cellErr != nil {
		return unitResult{}, cellErr
	}
	if len(sum.Cells) != econCells || len(ops) != len(sum.Cells) {
		return unitResult{}, fmt.Errorf("seed %s: sweep has %d cells (%d reported), want %d", u.seed, len(sum.Cells), len(ops), econCells)
	}
	res := unitResult{digest: digest, ops: ops, wall: end.Sub(t0).Seconds(), hostHours: hostHours}
	if u.traced {
		cells := float64(len(ops))
		cellMedian := median(ops)
		res.layers = map[string]float64{
			"engine.run_s":            cellMedian,
			"engine.ns_per_host_hour": cellMedian * 1e9 / (hostHours / cells),
			"output.save_s":           end.Sub(lastDone).Seconds() / cells,
			"econ.cells":              cells,
			"econ.site_ticks":         float64(siteTicks) / cells,
		}
	}
	return res, nil
}
