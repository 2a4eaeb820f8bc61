package main

import (
	"context"
	"flag"
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
// arrival schedule is a pure function of the seed, so the same seed and
// flags replay the same offered load.

type serveOpts struct {
	agents     *int
	scrapers   *int
	rate       *float64
	spikeX     *float64
	warmup     *time.Duration
	ramp       *time.Duration
	sustain    *time.Duration
	spike      *time.Duration
	roundEvery *time.Duration
	queue      *int
	inflight   *int
	pStale     *float64
	out        *string
}

func serveFlags(fs *flag.FlagSet) serveOpts {
	return serveOpts{
		agents:     fs.Int("serve-agents", 64, "simulated nodeagent fleet size for -phase serve"),
		scrapers:   fs.Int("serve-scrapers", 16, "concurrent scraper clients for -phase serve"),
		rate:       fs.Float64("serve-rate", 400, "sustain-phase offered load in requests/second"),
		spikeX:     fs.Float64("serve-spike-x", 5, "spike-phase load as a multiple of -serve-rate"),
		warmup:     fs.Duration("serve-warmup", 500*time.Millisecond, "warmup phase duration (quarter rate)"),
		ramp:       fs.Duration("serve-ramp", 500*time.Millisecond, "ramp phase duration (linear to full rate)"),
		sustain:    fs.Duration("serve-sustain", 3*time.Second, "sustain phase duration (full rate)"),
		spike:      fs.Duration("serve-spike", time.Second, "spike phase duration (rate × -serve-spike-x)"),
		roundEvery: fs.Duration("serve-round-every", 250*time.Millisecond, "collection-round cadence during the run"),
		queue:      fs.Int("serve-queue", 4, "ingest queue capacity (rounds; oldest shed when full)"),
		inflight:   fs.Int("serve-inflight", 64, "dash admission watermark (concurrent requests before 503)"),
		pStale:     fs.Float64("serve-stale", 0.05, "per-(host,round) probability a pooled keepalive went stale"),
		out:        fs.String("serve-out", "BENCH_SERVE.json", "write the full report as JSON to this file (\"\" disables)"),
	}
}

// runServeStudy drives E15 and exits non-zero when serveGate rejects the
// report, so CI can assert graceful degradation by exit status alone.
func runServeStudy(ctx context.Context, stdout io.Writer, seed string, o serveOpts) error {
	cfg := loadgen.Config{
		Seed:        seed + "/serve",
		Agents:      *o.agents,
		Scrapers:    *o.scrapers,
		SustainRate: *o.rate, SpikeMultiplier: *o.spikeX,
		Warmup: *o.warmup, Ramp: *o.ramp, Sustain: *o.sustain, Spike: *o.spike,
		RoundEvery:    *o.roundEvery,
		QueueCapacity: *o.queue,
		MaxInflight:   *o.inflight,
		PStaleConn:    *o.pStale,
	}
	fmt.Fprintf(stdout, "E15 serving-load study: %d agents, %d scrapers, %.0f rps sustain (spike ×%.1f), seed %q\n",
		*o.agents, *o.scrapers, *o.rate, *o.spikeX, seed)
	fmt.Fprintf(stdout, "profile: warmup %v, ramp %v, sustain %v, spike %v; rounds every %v; watermark %d; queue %d; p(stale) %.2f\n\n",
		*o.warmup, *o.ramp, *o.sustain, *o.spike, *o.roundEvery, *o.inflight, *o.queue, *o.pStale)

	started := time.Now()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%-8s %9s %9s %9s %7s %8s %9s  %8s %8s %8s %8s\n",
		"phase", "arrivals", "ok", "rejected", "errors", "dropped", "cachehit",
		"p50ms", "p99ms", "p999ms", "maxms")
	for _, p := range rep.Phases {
		fmt.Fprintf(stdout, "%-8s %9d %9d %9d %7d %8d %9d  %8.2f %8.2f %8.2f %8.2f\n",
			p.Phase, p.Arrivals, p.OK, p.Rejected, p.Errors, p.Dropped, p.CacheHits,
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

	if *o.out != "" {
		if err := writeFile(*o.out, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "report written to %s\n", *o.out)
	}
	return serveGate(rep)
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
