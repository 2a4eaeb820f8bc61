// frostctl runs the full reproduction end to end: the Feb 19 – Mar 26
// normal phase, then every artefact of report.Catalogue in its order —
// Figs. 1–4, the lm-sensors CPU figure, the §4 failure, hash, memory and
// sensor tables, the monitoring and coverage tables of a monitored run,
// the §5 analyses, the event log, the PUE table, the §3.1 prototype
// weekend (re-run for the run's seed) and the economizer savings.
// -id prints one artefact alone, exactly as it appears in the full
// output, and skips the run when the artefact does not need one.
// -load renders a saved run the same way, with the saved run's seed.
//
// Usage:
//
//	frostctl [-seed SEED] [-phase all|chaos|control|serve|alerts|econ] [-monitor 20m]
//	         [-id all|fig1|fig2|fig3|fig4|cpu|failures|hashes|memory|lmsensors|
//	              monitoring|coverage|analysis|events|pue|prototype|savings|control]
//	         [-days N] [-csv DIR] [-trace out.json]
//	frostctl -tents N [-hosts-per-tent 9] [-shards K] [-days N] [-csv DIR] [-save out.json]
//
// With no flags it reproduces the reference run (seed winter0910-r115).
// With -tents set it instead runs the sharded scale engine over a synthetic
// fleet of N tents (core.NewSharded): the same winter, physics, and failure
// model, stepped as parallel per-tent shards, reported as fleet-level
// aggregates. Results are byte-identical at any -shards value or GOMAXPROCS.
// -phase chaos runs the E13 monitoring-outage study instead: an in-process
// fleet collected under seeded fault injection, with scripted host crashes
// and stalls from -down and -stalled.
// -phase control runs the E14 free-cooling control study: the winter and
// spring scenarios open-loop vs closed-loop, with envelope residency
// measured identically for every arm (see -control-* flags).
// -phase serve runs the E15 serving-load study: the loadgen driver's
// warmup/ramp/sustain/spike profile against the production serving plane
// (keepalive pool, bounded ingest, admission control), writing the full
// report to BENCH_SERVE.json (see -serve-* flags).
// -phase alerts runs the E16 detection-latency study: every injectable
// fault class against the rules engine, measuring MTTD per class,
// checking replay byte-identity and the zero-alloc eval path, writing
// BENCH_ALERTS.json (see -alerts-out).
// -phase econ runs the E17 economics study: the multi-site fleet (one
// site per climate family, each on its geographic tariff) swept over
// placement policy x fleet x price regime, reporting $ and gCO2 per
// completed work-cycle and writing BENCH_ECON.json (see -econ-* flags).
// -list-climates and -list-policies print the scenario and policy
// libraries with their parameter defaults and exit.
// -trace records the run as Chrome trace-event JSON — open it in
// chrome://tracing or https://ui.perfetto.dev to see the experiment
// timeline: per-host outage spans, install/repair instants, monitoring
// rounds, and tent-power / coverage counter tracks.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"frostlab/internal/core"
	"frostlab/internal/hardware"
	"frostlab/internal/report"
	"frostlab/internal/telemetry"
	"frostlab/internal/timeseries"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// Every phase stops when a signal cancels ctx. The default handler is
	// back after it, so a second signal ends the process at once.
	context.AfterFunc(ctx, stop)
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
		fmt.Fprintln(os.Stderr, "frostctl:", err)
	}
	return 1
}

// flagError is a parse error the FlagSet has already reported.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("frostctl", flag.ContinueOnError)
	seed := fs.String("seed", core.ReferenceSeed, "master RNG seed")
	phase := fs.String("phase", "all", "all | chaos | control | serve | alerts | econ")
	id := fs.String("id", "all", "print only this report.Catalogue artefact of the normal phase (all = every one)")
	monitor := fs.Duration("monitor", 20*time.Minute, "monitoring cadence (0 disables the rsync plane)")
	days := fs.Int("days", 0, "override the normal-phase length in days (0 = paper horizon)")
	csvDir := fs.String("csv", "", "write temperature/humidity CSVs into this directory")
	saveTo := fs.String("save", "", "save the run's results as JSON to this file")
	loadFrom := fs.String("load", "", "skip the simulation; render a previously saved run")
	mdTo := fs.String("md", "", "write a complete markdown run report to this file")
	traceTo := fs.String("trace", "", "write the run as Chrome trace-event JSON to this file")
	tents := fs.Int("tents", 0, "run the sharded scale engine over a synthetic fleet of this many tents (0 = the paper's paired fleet)")
	hostsPerTent := fs.Int("hosts-per-tent", 9, "hosts per synthetic tent (with -tents)")
	shards := fs.Int("shards", 0, "shard count for the synthetic fleet; <= 0 selects GOMAXPROCS. Results are byte-identical at any shard count or GOMAXPROCS; more shards than cores adds overhead without speedup")
	listClim := fs.Bool("list-climates", false, "print the scenario library (climate families and tariff presets) and exit")
	listPol := fs.Bool("list-policies", false, "print the site placement-policy library and exit")
	ch := chaosFlags(fs)
	co := controlFlags(fs)
	se := serveFlags(fs)
	alertsOut := fs.String("alerts-out", "BENCH_ALERTS.json", "write the E16 study report as JSON to this file (\"\" disables)")
	eo := econFlags(fs)
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}

	switch *phase {
	case "all", "chaos", "control", "serve", "alerts", "econ":
	default:
		return fmt.Errorf("unknown -phase %q (want all | chaos | control | serve | alerts | econ)", *phase)
	}
	if *days < 0 {
		return fmt.Errorf("-days must not be negative, got %d", *days)
	}
	if *tents < 0 {
		return fmt.Errorf("-tents must not be negative, got %d", *tents)
	}
	arts := report.Catalogue
	if *id != "all" {
		if *phase != "all" {
			return fmt.Errorf("-id only applies to the normal phase, not -phase %s", *phase)
		}
		a, ok := report.ArtefactByID(strings.ToLower(*id))
		if !ok {
			return fmt.Errorf("unknown artefact id %q", *id)
		}
		arts = []report.Artefact{a}
	}

	if *listClim || *listPol {
		if *listClim {
			listClimates(stdout)
		}
		if *listPol {
			if *listClim {
				fmt.Fprintln(stdout)
			}
			listPolicies(stdout)
		}
		return nil
	}

	if *tents > 0 {
		if *phase != "all" || *id != "all" {
			return fmt.Errorf("-tents only applies to the whole normal phase, not -phase %s -id %s", *phase, *id)
		}
		return runScaleFleet(ctx, stdout, *seed, *tents, *hostsPerTent, *shards, *days, *saveTo, *csvDir)
	}

	switch *phase {
	case "chaos":
		return runChaosStudy(ctx, stdout, *seed, ch, *traceTo)
	case "control":
		return runControlStudy(ctx, stdout, *seed, co)
	case "alerts":
		return runAlertsStudy(ctx, stdout, *seed, *alertsOut)
	case "econ":
		return runEconStudy(ctx, stdout, *seed, eo)
	case "serve":
		return runServeStudy(ctx, stdout, *seed, se)
	}

	// The headers belong to the full output: -id X prints X's block alone.
	whole := *id == "all"
	var r *core.Results
	switch {
	case *loadFrom != "":
		f, err := os.Open(*loadFrom)
		if err != nil {
			return err
		}
		r, err = core.LoadResults(f)
		f.Close()
		if err != nil {
			return err
		}
		if whole {
			fmt.Fprintf(stdout, "Rendering saved run %s (seed %q, %s – %s)\n\n",
				*loadFrom, r.Seed, r.Start.Format("Jan 02"), r.End.Format("Jan 02"))
		}
	// A shorter -days window also moves the savings table's, so only the
	// paper horizon may skip the run for an artefact that needs none.
	case whole || arts[0].NeedsRun || *days > 0 || *saveTo != "" || *csvDir != "" || *mdTo != "" || *traceTo != "":
		cfg := core.DefaultConfig(*seed)
		cfg.MonitorEvery = *monitor
		if *days > 0 {
			cfg.End = cfg.Start.AddDate(0, 0, *days)
		}
		if whole {
			fmt.Fprintf(stdout, "Running normal phase %s – %s (seed %q, monitoring %v)...\n\n",
				cfg.Start.Format("Jan 02"), cfg.End.Format("Jan 02"), *seed, *monitor)
		}
		exp, err := core.New(cfg)
		if err != nil {
			return err
		}
		var tracer *telemetry.Tracer
		if *traceTo != "" {
			tracer = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
			exp.WithTracer(tracer)
		}
		if r, err = exp.RunContext(ctx); err != nil {
			return err
		}
		if tracer != nil {
			if err := writeFile(*traceTo, tracer.WriteChromeTrace); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "Chrome trace (%d events, %d dropped) written to %s\n\n",
				tracer.Len(), tracer.Dropped(), *traceTo)
		}
	}
	if *saveTo != "" {
		if err := saveResults(stdout, *saveTo, r); err != nil {
			return err
		}
	}

	for _, a := range arts {
		s, err := a.Render(*seed, r)
		if err != nil {
			return err
		}
		if s != "" {
			fmt.Fprintln(stdout, s)
		}
	}

	if *csvDir != "" {
		if err := writeCSVs(stdout, *csvDir, r); err != nil {
			return err
		}
	}
	if *mdTo != "" {
		md, err := report.Markdown(r)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*mdTo, []byte(md), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Markdown report written to %s\n", *mdTo)
	}
	return nil
}

// runScaleFleet runs the sharded scale engine (-tents) and prints
// fleet-level aggregates: at 10k+ hosts the per-host tables of the paper
// reproduction stop being readable, so the scale path reports rates,
// energy, and throughput instead.
func runScaleFleet(ctx context.Context, stdout io.Writer, seed string, tents, hostsPerTent, shards, days int, saveTo, csvDir string) error {
	fleet, err := hardware.SyntheticFleet(tents, hostsPerTent, seed)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(seed)
	cfg.Fleet = fleet
	cfg.MonitorEvery = 0
	if days > 0 {
		cfg.End = cfg.Start.AddDate(0, 0, days)
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	exp, err := core.NewSharded(cfg, shards)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Running synthetic fleet %s – %s: %d tents × %d hosts = %d hosts in %d shards (seed %q)...\n\n",
		cfg.Start.Format("Jan 02"), cfg.End.Format("Jan 02"),
		tents, hostsPerTent, exp.Hosts(), exp.Shards(), seed)
	wallStart := time.Now()
	r, err := exp.RunContext(ctx)
	if err != nil {
		return err
	}
	wall := time.Since(wallStart)

	if saveTo != "" {
		if err := saveResults(stdout, saveTo, r); err != nil {
			return err
		}
	}

	var relocated, storageLost, transients int
	for _, h := range r.Hosts {
		transients += len(h.Transients)
		if h.Relocated {
			relocated++
		}
		if h.StorageLost {
			storageLost++
		}
	}
	fmt.Fprintln(stdout, report.TableFailureRates(r))
	if in, err := r.InsideTemp.Summarize(); err == nil {
		fmt.Fprintf(stdout, "Tent air: min %.1f °C, mean %.1f °C, max %.1f °C over %d samples\n",
			in.Min, in.Mean, in.Max, in.N)
	}
	fmt.Fprintf(stdout, "Transient failures: %d (%d hosts relocated indoors)\n", transients, relocated)
	fmt.Fprintf(stdout, "Storage lost: %d hosts\n", storageLost)
	fmt.Fprintf(stdout, "Wrong hashes: %d incidents over %d workload cycles\n", len(r.WrongHashes), r.TotalCycles)
	fmt.Fprintf(stdout, "Tent-feed energy: %.0f kWh\n", float64(r.TentEnergy))
	hours := cfg.End.Sub(cfg.Start).Hours()
	fmt.Fprintf(stdout, "Wall clock: %v (%.1f ns/host-hour)\n",
		wall.Round(time.Millisecond),
		float64(wall.Nanoseconds())/(float64(exp.Hosts())*hours))

	if csvDir != "" {
		return writeCSVs(stdout, csvDir, r)
	}
	return nil
}

// writeFile creates path, fills it with write and closes it, returning
// the first error of the three.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// saveResults writes r as a frostctl JSON archive to path.
func saveResults(stdout io.Writer, path string, r *core.Results) error {
	if err := writeFile(path, func(w io.Writer) error { return core.SaveResults(w, r) }); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Results saved to %s\n\n", path)
	return nil
}

func writeCSVs(stdout io.Writer, dir string, r *core.Results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, s := range map[string]*timeseries.Series{
		"outside_temp.csv": r.OutsideTemp,
		"outside_rh.csv":   r.OutsideRH,
		"inside_temp.csv":  r.InsideTemp,
		"inside_rh.csv":    r.InsideRH,
	} {
		if err := writeFile(filepath.Join(dir, name), s.WriteCSV); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "CSV series written to %s\n", dir)
	return nil
}
