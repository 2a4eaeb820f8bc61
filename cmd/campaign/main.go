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
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"frostlab/internal/campaign"
	"frostlab/internal/report"
	"frostlab/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(exitCode(err))
}

// exitCode prints err on stderr, unless the FlagSet has already printed
// it with the usage, and returns the exit status: 0 after success or -h.
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if !errors.As(err, new(flagError)) {
		fmt.Fprintln(os.Stderr, "campaign:", err)
	}
	return 1
}

// flagError is a parse error the FlagSet has already reported.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	reps := fs.Int("reps", 16, "replicates per sweep point")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers")
	seed := fs.String("seed", "winter0910", "campaign master seed (replicate i uses <seed>/rep/<i>)")
	days := fs.Int("days", 0, "override the normal-phase length in days (0 = paper horizon)")
	climates := fs.String("climates", "", "comma-separated internal/climate families to sweep (\"reference\" or empty = calibrated reference winter)")
	fleets := fs.String("fleets", "", "comma-separated fleet sizes (tent/basement pairs) to sweep")
	monitors := fs.String("monitors", "", "comma-separated monitoring cadences to sweep (e.g. 0,20m,2h)")
	mods := fs.String("mods", "", "sweep the R/I/B/F modification ladder: on,off")
	checkpoint := fs.String("checkpoint", "campaign-checkpoints", "checkpoint directory (\"\" disables persistence)")
	grid := fs.Duration("grid", campaign.DefaultEnvelopeGrid, "resampling bucket for cross-run envelopes")
	boot := fs.Int("bootstrap", 1000, "bootstrap iterations for the mean-rate CI")
	verbose := fs.Bool("v", false, "print one line per finished replicate")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz, /buildinfo and net/http/pprof on this address while the campaign runs")
	if err := fs.Parse(args); err != nil {
		return flagError{err}
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
		stopDebug, err := serveDebug(*debugAddr, telemetry.DebugMux(reg, true))
		if err != nil {
			return err
		}
		defer stopDebug()
		fmt.Fprintf(stdout, "telemetry + pprof on http://%s/\n", *debugAddr)
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

	started := time.Now()
	fmt.Fprintf(stdout, "Running campaign: seed %q, %d replicate(s), %d worker(s)", *seed, *reps, spec.Workers)
	if *checkpoint != "" {
		fmt.Fprintf(stdout, ", checkpoints in %s", *checkpoint)
	}
	fmt.Fprintln(stdout, "...")

	summary, err := campaign.Run(ctx, spec)
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(stdout, "\nInterrupted after %s: %d of %d runs completed",
			time.Since(started).Round(time.Millisecond), summary.Completed, summary.TotalRuns)
		if *checkpoint != "" {
			fmt.Fprintf(stdout, " and checkpointed; re-run the same command to resume")
			if summary.CheckpointFailed > 0 {
				fmt.Fprintf(stdout, " (%d checkpoint write(s) failed and will re-run)", summary.CheckpointFailed)
			}
		}
		fmt.Fprintln(stdout, ".")
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Campaign finished in %s.\n\n", time.Since(started).Round(time.Millisecond))
	fmt.Fprintln(stdout, report.Campaign(summary))
	return nil
}

// serveDebug listens on addr before the campaign starts, so a busy or
// malformed address fails the run, and serves h until the returned stop
// shuts the server down and waits for it.
func serveDebug(addr string, h http.Handler) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	srv := telemetry.NewServer(addr, h)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "campaign: debug listener:", err)
		}
	}()
	return func() {
		srv.Close()
		<-done
	}, nil
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
