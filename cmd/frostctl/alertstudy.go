package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"frostlab/internal/chaos"
	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/monitor"
	"frostlab/internal/rules"
	"frostlab/internal/wire"
)

// The E16 detection-latency study (-phase alerts): every fault class the
// chaos planes can inject — a stalled sensor host, a network cut, payload
// corruption, stale pooled keepalives, a stuck damper — is driven against
// the rules engine, and the study measures MTTD: the gap between the
// fault taking effect and the matching alert's firing transition. Each
// arm runs twice with the same seed; the incident timelines must be
// byte-identical (digest-compared), and the warm evaluation path must
// not allocate. Each class must also be detected within its MTTD budget;
// the full result lands in BENCH_ALERTS.json.

// The E16 fleet: six hosts in the collection arms, and an 11-day
// closed-loop run whose damper jams at 1-based control tick 2601
// (5-minute cadence).
const (
	alertsHosts     = 6
	alertsDays      = 11
	alertsStuckTick = 2601
)

// mttdBudget is each fault class's detection budget in seconds: the
// MTTDs committed in BENCH_ALERTS.json, so detection can only get faster.
var mttdBudget = map[string]float64{
	"sensor-stall": 2400,
	"network-cut":  1200,
	"corruption":   1200,
	"stale-conn":   1200,
	"stuck-damper": 2400,
}

// armResult is one fault class's detection record.
type armResult struct {
	Class           string    `json:"class"`
	Rule            string    `json:"rule"`
	InjectedAt      time.Time `json:"injected_at"`
	FiredAt         time.Time `json:"fired_at"`
	Detected        bool      `json:"detected"`
	MTTDSeconds     float64   `json:"mttd_seconds"`
	ReplayIdentical bool      `json:"replay_identical"`
	TimelineDigest  string    `json:"timeline_digest"`
}

// alertsBench is the BENCH_ALERTS.json shape.
type alertsBench struct {
	Seed              string      `json:"seed"`
	Classes           []armResult `json:"classes"`
	EvalAllocsPerTick float64     `json:"eval_allocs_per_tick"`
}

// fleetArm is one collection-plane fault class: a chaos spec, the rule
// file watching for it, and the round the fault first takes effect.
type fleetArm struct {
	class       string
	watch       string // rule name whose first firing is the detection
	ruleFile    string
	spec        chaos.Spec
	pool        bool
	injectRound int
	rounds      int
	// linesPerRound is how many sensor lines each agent appends per
	// round (0 = 1). The corruption arm needs bulk: the injector flips a
	// bit at a drawn offset within the first 4 KiB of the inbound
	// stream, so the delta payload must reliably reach past it.
	linesPerRound int
}

func runAlertsStudy(ctx context.Context, stdout io.Writer, seed, out string) error {
	t0 := time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)
	cadence := 20 * time.Minute

	arms := []fleetArm{
		{
			class: "sensor-stall", watch: "sensor_stall",
			ruleFile: "alert sensor_stall absent(*/cpu,30m) for 20m severity page\n",
			spec: chaos.Spec{
				Seed:       seed + "/stall",
				StallDelay: time.Second,
				Stalled:    map[string][]chaos.RoundRange{"02": {{From: 6}}},
			},
			injectRound: 6, rounds: 12,
		},
		{
			class: "network-cut", watch: "coverage_drop",
			ruleFile: "alert coverage_drop value($coverage) < 0.95 for 20m severity page\n",
			spec: chaos.Spec{
				Seed: seed + "/cut",
				Down: map[string][]chaos.RoundRange{"02": {{From: 6}}, "03": {{From: 6}}},
			},
			injectRound: 6, rounds: 12,
		},
		{
			class: "corruption", watch: "breaker_open",
			ruleFile: "alert breaker_open value($breakers_open) > 0 severity warn\n",
			spec: chaos.Spec{
				Seed:     seed + "/corrupt",
				PCorrupt: 1,
			},
			injectRound: 1, rounds: 8, linesPerRound: 200,
		},
		{
			class: "stale-conn", watch: "pool_churn",
			ruleFile: "alert pool_churn rate($pool_stale,60m) > 0 severity warn\n",
			spec: chaos.Spec{
				Seed:       seed + "/stale",
				PStaleConn: 1,
			},
			pool:        true,
			injectRound: 1, rounds: 8,
		},
	}

	fmt.Fprintf(stdout, "E16 detection-latency study: %d hosts, seed %q\n\n", alertsHosts, seed)
	var results []armResult
	for _, arm := range arms {
		res, err := runFleetArmTwice(ctx, seed, alertsHosts, t0, cadence, arm)
		if err != nil {
			return fmt.Errorf("%s: %w", arm.class, err)
		}
		results = append(results, res)
		printArm(stdout, res)
	}

	damper, err := runDamperArm(ctx, seed, alertsDays, alertsStuckTick)
	if err != nil {
		return fmt.Errorf("stuck-damper: %w", err)
	}
	results = append(results, damper)
	printArm(stdout, damper)

	allocs := measureEvalAllocs()
	fmt.Fprintf(stdout, "\nwarm eval path: %.3f allocs/tick over 1000 ticks\n", allocs)

	bench := alertsBench{Seed: seed, Classes: results, EvalAllocsPerTick: allocs}
	if out != "" {
		data, err := json.MarshalIndent(bench, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", out)
	}
	return alertsGate(bench)
}

// alertsGate is the study's pass/fail decision: every fault class must
// be detected within its MTTD budget, every replay must be
// byte-identical, and the warm eval path must be allocation-free.
func alertsGate(b alertsBench) error {
	seen := make(map[string]bool, len(b.Classes))
	for _, r := range b.Classes {
		seen[r.Class] = true
		if !r.Detected {
			return fmt.Errorf("E16: fault class %s never fired rule %s", r.Class, r.Rule)
		}
		if !r.ReplayIdentical {
			return fmt.Errorf("E16: fault class %s replay produced a different timeline", r.Class)
		}
		budget, ok := mttdBudget[r.Class]
		if !ok {
			return fmt.Errorf("E16: fault class %s has no MTTD budget", r.Class)
		}
		if r.MTTDSeconds > budget {
			return fmt.Errorf("E16: fault class %s MTTD %.0fs over its %.0fs budget", r.Class, r.MTTDSeconds, budget)
		}
	}
	if len(seen) != len(mttdBudget) {
		return fmt.Errorf("E16: the study ran %d of the %d budgeted fault classes", len(seen), len(mttdBudget))
	}
	if b.EvalAllocsPerTick != 0 {
		return fmt.Errorf("E16: warm eval path allocates (%.3f allocs/tick)", b.EvalAllocsPerTick)
	}
	return nil
}

func printArm(stdout io.Writer, r armResult) {
	status := "MISSED"
	if r.Detected {
		status = fmt.Sprintf("MTTD %s", time.Duration(r.MTTDSeconds*float64(time.Second)).Round(time.Second))
	}
	replay := "replay identical"
	if !r.ReplayIdentical {
		replay = "REPLAY DIVERGED"
	}
	fmt.Fprintf(stdout, "%-14s rule %-14s injected %s  %-12s %s\n",
		r.Class, r.Rule, r.InjectedAt.Format("15:04"), status, replay)
}

// runFleetArmTwice runs one collection-plane arm twice with the same
// seed and folds the two runs into a result: detection comes from the
// first run, replay identity from comparing timeline digests.
func runFleetArmTwice(ctx context.Context, seed string, hosts int, t0 time.Time, cadence time.Duration, arm fleetArm) (armResult, error) {
	fired1, digest1, err := runFleetArmOnce(ctx, seed, hosts, t0, cadence, arm)
	if err != nil {
		return armResult{}, err
	}
	fired2, digest2, err := runFleetArmOnce(ctx, seed, hosts, t0, cadence, arm)
	if err != nil {
		return armResult{}, err
	}
	injected := t0.Add(time.Duration(arm.injectRound-1) * cadence)
	res := armResult{
		Class:           arm.class,
		Rule:            arm.watch,
		InjectedAt:      injected,
		FiredAt:         fired1,
		Detected:        !fired1.IsZero(),
		ReplayIdentical: digest1 == digest2 && fired1.Equal(fired2),
		TimelineDigest:  digest1,
	}
	if res.Detected {
		res.MTTDSeconds = fired1.Sub(injected).Seconds()
	}
	return res, nil
}

// runFleetArmOnce drives an in-process fleet under the arm's chaos spec
// for the configured rounds, evaluating the rules engine at each round's
// sim-time, and reports the watched rule's first firing plus the
// timeline digest. A cancelled ctx stops it after the round in hand.
func runFleetArmOnce(ctx context.Context, seed string, hosts int, t0 time.Time, cadence time.Duration, arm fleetArm) (time.Time, string, error) {
	inj, err := chaos.New(arm.spec)
	if err != nil {
		return time.Time{}, "", err
	}
	set, err := rules.Parse([]byte(arm.ruleFile))
	if err != nil {
		return time.Time{}, "", err
	}

	ids := make([]string, hosts)
	stores := make(map[string]*monitor.FileStore, hosts)
	agents := make(map[string]*monitor.Agent, hosts)
	keys := make(wire.Keystore, hosts)
	for i := range ids {
		id := fmt.Sprintf("%02d", i+1)
		ids[i] = id
		stores[id] = monitor.NewFileStore()
		agents[id] = monitor.NewAgent(id, stores[id])
		keys[id] = []byte(seed + "/psk/" + id)
	}

	db := monitor.NewSampleDB()
	coll := monitor.NewCollector(0).WithSamples(db)
	cfg := monitor.FleetConfig{
		Hosts:        ids,
		Dial:         inj.WrapDialer(monitor.InProcessDialer(agents, keys, seed)),
		KeyFor:       keys.Lookup,
		NonceFor:     monitor.InProcessNonces(seed),
		Retry:        monitor.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second, Multiplier: 2},
		Breaker:      monitor.BreakerConfig{Trip: 2, Cooldown: 3},
		PhaseTimeout: 50 * time.Millisecond,
		RoundTimeout: 30 * time.Second,
		Jitter:       monitor.DeterministicJitter(seed),
		// Backoffs are drawn (so deterministic) but never slept: the study
		// measures detection latency in sim-time, not wall-clock.
		Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
	if arm.pool {
		cfg.Pool = &monitor.PoolConfig{Fault: inj.StaleConn}
	}
	fc, err := monitor.NewFleetCollector(coll, cfg)
	if err != nil {
		return time.Time{}, "", err
	}
	defer fc.Close()

	eng := rules.NewEngine(set, db.Store()).
		Live("coverage", func() float64 { return fc.Ledger().Coverage() }).
		Live("pool_stale", func() float64 { return float64(fc.PoolStaleTotal()) }).
		Live("breakers_open", func() float64 {
			open := 0
			for _, id := range ids {
				if fc.BreakerState(id) == monitor.BreakerOpen {
					open++
				}
			}
			return float64(open)
		})

	at := t0
	for round := 1; round <= arm.rounds; round++ {
		// Every agent keeps producing sensor data; whether the collector
		// gets to pick it up is the chaos plane's business. A stalled host
		// has the data — the staleness alert is about the copy the
		// monitoring host can see.
		lines := arm.linesPerRound
		if lines < 1 {
			lines = 1
		}
		for i := 0; i < lines; i++ {
			line := fmt.Sprintf("%s cpu=%.1f load=%d\n",
				at.UTC().Format(time.RFC3339), -6+0.1*float64(round), round*1000+i)
			for _, id := range ids {
				stores[id].Append(monitor.SensorLog, []byte(line))
			}
		}
		fc.Round(ctx, at)
		if err := ctx.Err(); err != nil {
			return time.Time{}, "", err
		}
		eng.Eval(at)
		at = at.Add(cadence)
	}

	return firstFiring(eng.Timeline(), arm.watch), eng.TimelineDigest(), nil
}

// firstFiring scans a timeline for the watched rule's first firing
// transition.
func firstFiring(tl []rules.Event, rule string) time.Time {
	for _, ev := range tl {
		if ev.Rule == rule && ev.Kind == rules.EvFiring {
			return ev.At
		}
	}
	return time.Time{}
}

// runDamperArm drives the closed-loop control plane with a scripted
// stuck damper and watches the sim-time rules engine catch the
// supervisor's fallback. Detection latency here stacks three cadences:
// the 5-minute control tick, the supervisor's stuck window, and the
// 20-minute monitoring round the engine evaluates on.
func runDamperArm(ctx context.Context, seed string, days, stuckTick int) (armResult, error) {
	run := func() (*core.Results, error) {
		cfg := core.DefaultConfig(seed)
		cfg.End = cfg.Start.AddDate(0, 0, days)
		cfg.MonitorEvery = 20 * time.Minute
		cfg.LascarArrival = cfg.Start
		cfg.ReadoutEvery = 0
		ctl := control.DefaultConfig()
		// A deep setpoint keeps the loop demanding an open damper whenever
		// the envelope floor allows, so the scripted jam is guaranteed to
		// produce the command/position mismatch the supervisor detects.
		ctl.Setpoint = -5
		cfg.Control = &ctl
		cfg.ActuatorChaos = &chaos.ActuatorSpec{
			Seed:  seed + "/actuator",
			Stuck: map[string][]chaos.RoundRange{"damper": {{From: stuckTick}}},
		}
		var err error
		cfg.Rules, err = rules.Parse([]byte(
			"alert damper_stuck value($control_fallback) > 0 severity page\n"))
		if err != nil {
			return nil, err
		}
		exp, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		return exp.RunContext(ctx)
	}
	r1, err := run()
	if err != nil {
		return armResult{}, err
	}
	r2, err := run()
	if err != nil {
		return armResult{}, err
	}
	if r1.Alerts == nil || r2.Alerts == nil {
		return armResult{}, fmt.Errorf("no alerts report on closed-loop run")
	}
	// The damper jams at the start of control tick stuckTick (1-based,
	// 5-minute cadence).
	injected := r1.Start.Add(time.Duration(stuckTick-1) * 5 * time.Minute)
	fired1 := firstFiring(r1.Alerts.Timeline, "damper_stuck")
	fired2 := firstFiring(r2.Alerts.Timeline, "damper_stuck")
	res := armResult{
		Class:           "stuck-damper",
		Rule:            "damper_stuck",
		InjectedAt:      injected,
		FiredAt:         fired1,
		Detected:        !fired1.IsZero(),
		ReplayIdentical: r1.Alerts.Digest == r2.Alerts.Digest && fired1.Equal(fired2),
		TimelineDigest:  r1.Alerts.Digest,
	}
	if res.Detected {
		res.MTTDSeconds = fired1.Sub(injected).Seconds()
	}
	return res, nil
}

// measureEvalAllocs warms a representative engine — wildcard expansion,
// windowed functions, live gauges, a recording rule — then measures
// mallocs across 1000 evaluation ticks. The tentpole claim is zero.
func measureEvalAllocs() float64 {
	db := monitor.NewSampleDB()
	base := time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)
	for _, id := range []string{"01", "02", "03"} {
		db.Ingest(id, monitor.SensorLog, []byte(fmt.Sprintf(
			"%s cpu=-4.0 disk0=6.0\n", base.UTC().Format(time.RFC3339))))
	}
	set := rules.MustParse(`alert stale absent(*/cpu,45m) for 20m severity page
alert cold value($temp) < 0 for 20m
alert churn rate($counter,60m) > 0
record temp_copy value($temp)
`)
	eng := rules.NewEngine(set, db.Store()).
		Live("temp", func() float64 { return 3 }).
		Live("counter", func() float64 { return 42 })
	at := base
	// Warm until steady state: the instance set builds, the recording
	// rule's output series lands, and the staleness alert walks its full
	// pending → firing path (each transition appends an incident series,
	// which forces one rebuild on the following tick).
	for i := 0; i < 8; i++ {
		at = at.Add(20 * time.Minute)
		eng.Eval(at)
	}
	// testing.AllocsPerRun pins GOMAXPROCS to 1 for the measurement, so
	// stray runtime activity cannot smear the count — the same gate
	// TestEvalWarmPathAllocs applies in the package tests.
	return testing.AllocsPerRun(1000, func() {
		at = at.Add(20 * time.Minute)
		eng.Eval(at)
	})
}
