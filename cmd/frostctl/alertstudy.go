package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"frostlab/internal/chaos"
	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/monitor"
	"frostlab/internal/rules"
)

// The E16 detection-latency study (-phase alerts): every fault class the
// chaos planes can inject — a stalled sensor host, a network cut, payload
// corruption, stale pooled keepalives, a stuck damper — is driven against
// the rules engine, and the study measures MTTD: the gap between the
// fault taking effect and the matching alert's firing transition. Each
// arm runs twice with the same seed; the incident timelines must be
// byte-identical (digest-compared), and each class must be detected
// within its MTTD budget. -save writes the report, committed as
// BENCH_ALERTS.json.

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
	Seed    string      `json:"seed"`
	Classes []armResult `json:"classes"`
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

func runAlertsStudy(ctx context.Context, stdout io.Writer, o *options) (any, error) {
	seed := o.seed
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
			return nil, fmt.Errorf("%s: %w", arm.class, err)
		}
		results = append(results, res)
		printArm(stdout, res)
	}

	damper, err := runDamperArm(ctx, seed, alertsDays, alertsStuckTick)
	if err != nil {
		return nil, fmt.Errorf("stuck-damper: %w", err)
	}
	printArm(stdout, damper)
	return alertsBench{Seed: seed, Classes: append(results, damper)}, nil
}

// alertsGate is the study's pass/fail decision: every fault class must
// be detected within its MTTD budget and every replay must be
// byte-identical.
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
	for i := range ids {
		ids[i] = fmt.Sprintf("%02d", i+1)
		stores[ids[i]] = monitor.NewFileStore()
	}

	db := monitor.NewSampleDB()
	coll := monitor.NewCollector(0).WithSamples(db)
	cfg := inProcessFleet(seed, ids, stores, inj)
	cfg.Retry = monitor.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second, Multiplier: 2}
	cfg.Breaker = monitor.BreakerConfig{Trip: 2, Cooldown: 3}
	cfg.PhaseTimeout = 50 * time.Millisecond
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
		ctl := control.DefaultConfig()
		// A deep setpoint keeps the loop demanding an open damper whenever
		// the envelope floor allows, so the scripted jam is guaranteed to
		// produce the command/position mismatch the supervisor detects.
		ctl.Setpoint = -5
		cfg := controlRunConfig(seed, &ctl)
		cfg.End = cfg.Start.AddDate(0, 0, days)
		cfg.MonitorEvery = 20 * time.Minute
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
