package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"frostlab/internal/loadgen"
)

// The E15 serving-load study (-phase serve): the loadgen driver runs a
// simulated nodeagent fleet plus a concurrent scraper fleet through the
// warmup/ramp/sustain/spike profile against the production serving
// wiring — keepalive-pooled collection, bounded ingest queue, dash with
// admission control and scrape caching — and reports HDR latency
// quantiles, shed counts, pool/ingest accounting, and liveness. The
// arrival schedule is a pure function of the seed and configuration, so
// the same seed replays the same offered load.

// runServeStudy drives E15 under cfg; the table passes loadgen's
// default configuration, the committed reference run, with only the
// seed set. serveGate judges the report, so CI can assert graceful
// degradation by exit status alone.
func runServeStudy(ctx context.Context, stdout io.Writer, cfg loadgen.Config) (*loadgen.Report, error) {
	fmt.Fprintf(stdout, "E15 serving-load study, seed %q...\n", cfg.Seed)
	started := time.Now()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(stdout, "%d agents, %d scrapers, %.0f rps sustain, %.0f rps spike\n\n",
		rep.Agents, rep.Scrapers, rep.SustainRate, rep.SpikeRate)
	fmt.Fprintf(stdout, "%-8s %7s %9s %9s %9s %7s %8s %9s  %8s %8s %8s %8s\n",
		"phase", "rps", "arrivals", "ok", "rejected", "errors", "dropped", "cachehit",
		"p50ms", "p99ms", "p999ms", "maxms")
	for _, p := range rep.Phases {
		fmt.Fprintf(stdout, "%-8s %7.0f %9d %9d %9d %7d %8d %9d  %8.2f %8.2f %8.2f %8.2f\n",
			p.Phase, p.OfferedRate, p.Arrivals, p.OK, p.Rejected, p.Errors, p.Dropped, p.CacheHits,
			p.P50Ms, p.P99Ms, p.P999Ms, p.MaxMs)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "collection: %d rounds, %d/%d host-rounds ok (%d failed, %d skipped), coverage %.4f, p99 %.1fms\n",
		rep.RoundsPlane.Rounds, rep.RoundsPlane.OK, rep.RoundsPlane.HostRounds,
		rep.RoundsPlane.Failed, rep.RoundsPlane.Skipped, rep.RoundsPlane.Coverage, rep.RoundsPlane.P99Ms)
	fmt.Fprintf(stdout, "pool:       %.0f dials, %.0f hits, %.0f stale, %.0f retired, %d idle at close\n",
		rep.Pool.Dials, rep.Pool.Hits, rep.Pool.Stale, rep.Pool.Retired, rep.Pool.Idle)
	fmt.Fprintf(stdout, "ingest:     %d offered = %d done + %d shed + %d failed (max depth %d)\n",
		rep.Ingest.Offered, rep.Ingest.Done, rep.Ingest.Shed, rep.Ingest.Failed, rep.Ingest.MaxDepth)
	fmt.Fprintf(stdout, "liveness:   %d healthz probes, %d failures; goroutines %d -> %d; mirrors %d bytes\n",
		rep.Healthz.Probes, rep.Healthz.Failures, rep.Goroutines.Before, rep.Goroutines.After, rep.MirrorBytes)
	fmt.Fprintf(stdout, "wall time:  %v\n", time.Since(started).Round(time.Millisecond))
	return rep, nil
}

// serveGate is the study's pass/fail decision. A study that sheds load
// is healthy; one that loses track of load, goes dark, leaks goroutines,
// fails collection rounds, or serves the sustain phase slower than
// 250 ms at p99 is not.
func serveGate(rep *loadgen.Report) error {
	if n := rep.Unaccounted(); n != 0 {
		return fmt.Errorf("E15: %d requests unaccounted (arrivals != ok+rejected+errors+dropped)", n)
	}
	if rep.Healthz.Failures > 0 {
		return fmt.Errorf("E15: healthz failed %d of %d probes under load", rep.Healthz.Failures, rep.Healthz.Probes)
	}
	if rep.Ingest.Offered != rep.Ingest.Done+rep.Ingest.Shed+rep.Ingest.Failed {
		return fmt.Errorf("E15: ingest accounting broken: %+v", rep.Ingest)
	}
	sustain := rep.PhaseByName("sustain")
	if sustain == nil {
		return fmt.Errorf("E15: report has no sustain phase")
	}
	if sustain.P99Ms > 250 {
		return fmt.Errorf("E15: sustain-phase p99 %.2f ms above the 250 ms budget", sustain.P99Ms)
	}
	if rep.Healthz.Probes == 0 {
		return fmt.Errorf("E15: serving plane never probed under load")
	}
	if g := rep.Goroutines; g.After > g.Before+8 {
		return fmt.Errorf("E15: goroutine leak across the load run: %d -> %d", g.Before, g.After)
	}
	if n := rep.RoundsPlane.Failed; n != 0 {
		return fmt.Errorf("E15: %d collection host-rounds failed under scrape load", n)
	}
	return nil
}
