// campaign runs many independently seeded replicates of the frostlab
// experiment in parallel and pools their statistics: the replication and
// power-analysis study the paper's nine-hosts-per-arm winter could not
// afford.
//
// Usage:
//
//	campaign [-reps N] [-workers N] [-seed SEED] [-days N]
//	         [-climates a,b,...] [-fleets 9,18,...] [-monitors 0,20m,...]
//	         [-mods on,off] [-checkpoint DIR] [-grid 6h] [-v]
//
// Replicate i runs with the derived seed <seed>/rep/<i>. Completed runs
// are checkpointed as frostctl-compatible JSON; an interrupted campaign
// (Ctrl-C) resumes from the checkpoint directory on the next invocation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"frostlab/internal/campaign"
	"frostlab/internal/report"
	"frostlab/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run() error {
	reps := flag.Int("reps", 16, "replicates per sweep point")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers")
	seed := flag.String("seed", "winter0910", "campaign master seed (replicate i uses <seed>/rep/<i>)")
	days := flag.Int("days", 0, "override the normal-phase length in days (0 = paper horizon)")
	climates := flag.String("climates", "", "comma-separated internal/climate families to sweep (\"reference\" or empty = calibrated reference winter)")
	fleets := flag.String("fleets", "", "comma-separated fleet sizes (tent/basement pairs) to sweep")
	monitors := flag.String("monitors", "", "comma-separated monitoring cadences to sweep (e.g. 0,20m,2h)")
	mods := flag.String("mods", "", "sweep the R/I/B/F modification ladder: on,off")
	checkpoint := flag.String("checkpoint", "campaign-checkpoints", "checkpoint directory (\"\" disables persistence)")
	grid := flag.Duration("grid", campaign.DefaultEnvelopeGrid, "resampling bucket for cross-run envelopes")
	boot := flag.Int("bootstrap", 1000, "bootstrap iterations for the mean-rate CI")
	verbose := flag.Bool("v", false, "print one line per finished replicate")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /buildinfo and net/http/pprof on this address while the campaign runs")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "campaign: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "campaign: memprofile:", err)
			}
		}()
	}

	spec := campaign.Spec{
		Seed:           *seed,
		Reps:           *reps,
		Workers:        *workers,
		Days:           *days,
		EnvelopeGrid:   *grid,
		BootstrapIters: *boot,
		CheckpointDir:  *checkpoint,
	}
	var err error
	if spec.Sweep, err = parseSweep(*climates, *fleets, *monitors, *mods); err != nil {
		return err
	}
	if *debugAddr != "" {
		reg := telemetry.NewRegistry()
		spec.Metrics = campaign.NewMetrics(reg)
		go func() {
			if err := telemetry.NewServer(*debugAddr, telemetry.DebugMux(reg, true)).ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "campaign: debug listener:", err)
			}
		}()
		fmt.Printf("telemetry + pprof on http://%s/\n", *debugAddr)
	}
	if *verbose {
		spec.Progress = func(done, total int, rs campaign.RunSummary) {
			status := fmt.Sprintf("tent %d/%d", rs.Tent.Events, rs.Tent.Trials)
			if rs.Err != "" {
				status = "FAILED: " + rs.Err
			} else if rs.FromCheckpoint {
				status += " (checkpoint)"
			} else if rs.CheckpointErr != "" {
				status += " (checkpoint write failed: " + rs.CheckpointErr + ")"
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s rep %d (%s): %s\n",
				done, total, rs.Point, rs.Rep, rs.Seed, status)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	started := time.Now()
	fmt.Printf("Running campaign: seed %q, %d replicate(s), %d worker(s)", *seed, *reps, spec.Workers)
	if *checkpoint != "" {
		fmt.Printf(", checkpoints in %s", *checkpoint)
	}
	fmt.Println("...")

	summary, err := campaign.Run(ctx, spec)
	if errors.Is(err, context.Canceled) {
		fmt.Printf("\nInterrupted after %s: %d of %d runs completed",
			time.Since(started).Round(time.Millisecond), summary.Completed, summary.TotalRuns)
		if *checkpoint != "" {
			fmt.Printf(" and checkpointed; re-run the same command to resume")
			if summary.CheckpointFailed > 0 {
				fmt.Printf(" (%d checkpoint write(s) failed and will re-run)", summary.CheckpointFailed)
			}
		}
		fmt.Println(".")
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Printf("Campaign finished in %s.\n\n", time.Since(started).Round(time.Millisecond))
	fmt.Println(report.Campaign(summary))
	return nil
}

func parseSweep(climates, fleets, monitors, mods string) (campaign.Sweep, error) {
	var sw campaign.Sweep
	for _, c := range splitList(climates) {
		if c == "reference" {
			c = ""
		}
		sw.Climates = append(sw.Climates, c)
	}
	for _, f := range splitList(fleets) {
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return sw, fmt.Errorf("bad fleet size %q (want a positive pair count)", f)
		}
		sw.FleetPairs = append(sw.FleetPairs, n)
	}
	for _, m := range splitList(monitors) {
		if m == "0" {
			sw.MonitorEvery = append(sw.MonitorEvery, 0)
			continue
		}
		d, err := time.ParseDuration(m)
		if err != nil || d < 0 {
			return sw, fmt.Errorf("bad monitoring cadence %q", m)
		}
		sw.MonitorEvery = append(sw.MonitorEvery, d)
	}
	for _, m := range splitList(mods) {
		switch m {
		case "on":
			sw.Mods = append(sw.Mods, true)
		case "off":
			sw.Mods = append(sw.Mods, false)
		default:
			return sw, fmt.Errorf("bad mods value %q (want on or off)", m)
		}
	}
	return sw, nil
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
