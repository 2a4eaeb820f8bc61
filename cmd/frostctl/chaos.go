package main

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"frostlab/internal/chaos"
	"frostlab/internal/monitor"
	"frostlab/internal/telemetry"
	"frostlab/internal/wire"
)

// The E13 monitoring-outage study (-phase chaos): an in-process fleet is
// collected for a number of rounds while a seeded fault injector refuses,
// stalls, cuts, and corrupts connections, and the hardened collector's
// gap ledger records exactly what was lost. The whole run is driven by
// named RNG streams, so the same seed and fault spec replay bit-identically.

// The E13 fleet and fault mix: nine hosts collected over twelve rounds,
// per-attempt fault probabilities, three attempts per host-round, and
// breakers that open after two failed rounds and skip two before probing.
const (
	chaosHosts    = 9
	chaosRounds   = 12
	chaosPRefuse  = 0.05
	chaosPStall   = 0.05
	chaosPCut     = 0.05
	chaosPCorrupt = 0.1
)

// parseSchedule parses "03=1-4,07=2-" into round ranges.
func parseSchedule(s string) (map[string][]chaos.RoundRange, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string][]chaos.RoundRange)
	for _, pair := range strings.Split(s, ",") {
		host, span, ok := strings.Cut(pair, "=")
		if !ok || host == "" {
			return nil, fmt.Errorf("bad schedule entry %q (want host=from-to)", pair)
		}
		fromStr, toStr, ok := strings.Cut(span, "-")
		if !ok {
			toStr = fromStr // "host=5" means round 5 only
		}
		from, err := strconv.Atoi(fromStr)
		if err != nil {
			return nil, fmt.Errorf("bad schedule entry %q: %v", pair, err)
		}
		to := 0
		if toStr != "" {
			if to, err = strconv.Atoi(toStr); err != nil {
				return nil, fmt.Errorf("bad schedule entry %q: %v", pair, err)
			}
		}
		out[host] = append(out[host], chaos.RoundRange{From: from, To: to})
	}
	return out, nil
}

// fleetSchedule parses a -down or -stalled schedule and rejects any host
// outside the study's fleet, so a typo such as "1" for host "01" fails
// instead of silently scheduling nothing.
func fleetSchedule(flagName, s string, fleet []string) (map[string][]chaos.RoundRange, error) {
	sched, err := parseSchedule(s)
	if err != nil {
		return nil, err
	}
	for host := range sched {
		if !slices.Contains(fleet, host) {
			return nil, fmt.Errorf("%s: host %q is not in the fleet %s…%s", flagName, host, fleet[0], fleet[len(fleet)-1])
		}
	}
	return sched, nil
}

// inProcessFleet is the fleet E13 and E16 collect: an agent per host
// over stores, each keyed by seed+"/psk/"+id, dialled in-process through
// inj's faults, with nonces and backoff jitter drawn from seed. Backoffs
// are drawn but never slept: the studies measure coverage and detection
// latency in sim-time, not wall-clock. The caller adds the retry,
// breaker and phase-timeout policy.
func inProcessFleet(seed string, ids []string, stores map[string]*monitor.FileStore, inj *chaos.Injector) monitor.FleetConfig {
	agents := make(map[string]*monitor.Agent, len(ids))
	keys := make(wire.Keystore, len(ids))
	for _, id := range ids {
		agents[id] = monitor.NewAgent(id, stores[id])
		keys[id] = []byte(seed + "/psk/" + id)
	}
	return monitor.FleetConfig{
		Hosts:        ids,
		Dial:         inj.WrapDialer(monitor.InProcessDialer(agents, keys, seed)),
		KeyFor:       keys.Lookup,
		NonceFor:     monitor.InProcessNonces(seed),
		RoundTimeout: 30 * time.Second,
		Jitter:       monitor.DeterministicJitter(seed),
		Sleep:        func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
}

// runChaosStudy drives the E13 study; -trace, when set, records the
// collection plane (round and per-host collect spans, wall time) as
// Chrome trace-event JSON. A cancelled ctx stops it after the round in
// hand.
func runChaosStudy(ctx context.Context, stdout io.Writer, o *options) (any, error) {
	ids := make([]string, chaosHosts)
	for i := range ids {
		ids[i] = fmt.Sprintf("%02d", i+1)
	}
	down, err := fleetSchedule("-down", o.down, ids)
	if err != nil {
		return nil, err
	}
	stalled, err := fleetSchedule("-stalled", o.stalled, ids)
	if err != nil {
		return nil, err
	}
	inj, err := chaos.New(chaos.Spec{
		Seed:       o.seed + "/chaos",
		PRefuse:    chaosPRefuse,
		PStallRead: chaosPStall,
		PCut:       chaosPCut,
		PCorrupt:   chaosPCorrupt,
		Down:       down,
		Stalled:    stalled,
	})
	if err != nil {
		return nil, err
	}

	stores := make(map[string]*monitor.FileStore, chaosHosts)
	for _, id := range ids {
		store := monitor.NewFileStore()
		store.Append(monitor.MD5Log,
			[]byte("2010-02-19T12:10:00Z OK d41d8cd98f00b204e9800998ecf8427e\n"))
		store.Append(monitor.SensorLog, []byte("2010-02-19T12:10:00Z cpu=-4.1\n"))
		stores[id] = store
	}
	cfg := inProcessFleet(o.seed, ids, stores, inj)
	cfg.Retry = monitor.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second, Multiplier: 2}
	cfg.Breaker = monitor.BreakerConfig{Trip: 2, Cooldown: 2}
	cfg.PhaseTimeout = 2 * time.Second
	if o.trace != "" {
		cfg.Tracer = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
	}
	fc, err := monitor.NewFleetCollector(monitor.NewCollector(0), cfg)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(stdout, "E13 monitoring-outage study: %d hosts, %d rounds, seed %q\n", chaosHosts, chaosRounds, o.seed)
	fmt.Fprintf(stdout, "faults: refuse %.2f, stall %.2f, cut %.2f, corrupt %.2f; down %q; stalled %q\n\n",
		chaosPRefuse, chaosPStall, chaosPCut, chaosPCorrupt, o.down, o.stalled)
	at := time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)
	for round := 1; round <= chaosRounds; round++ {
		rep := fc.Round(ctx, at)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		at = at.Add(20 * time.Minute)
		var notes []string
		for _, h := range rep.Hosts {
			switch h.Status {
			case monitor.StatusFailed:
				notes = append(notes, fmt.Sprintf("%s failed (%d attempts)", h.HostID, h.Attempts))
			case monitor.StatusSkipped:
				notes = append(notes, h.HostID+" skipped")
			}
		}
		detail := ""
		if len(notes) > 0 {
			detail = ": " + strings.Join(notes, ", ")
		}
		fmt.Fprintf(stdout, "round %2d: coverage %.4f%s\n", round, rep.Coverage(), detail)
	}
	fmt.Fprintf(stdout, "\n%s", fc.Ledger().String())
	if cfg.Tracer != nil {
		if err := writeFile(o.trace, cfg.Tracer.WriteChromeTrace); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "Chrome trace (%d events) written to %s\n", cfg.Tracer.Len(), o.trace)
	}
	return nil, nil
}
