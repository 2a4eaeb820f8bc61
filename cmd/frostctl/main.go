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
//	frostctl [-seed SEED] [-monitor 20m] [-days N] [-csv DIR] [-save out.json | -load in.json]
//	         [-id all|fig1|fig2|fig3|fig4|cpu|failures|hashes|memory|lmsensors|
//	              monitoring|coverage|analysis|events|pue|prototype|savings|control]
//	         [-md out.md] [-trace out.json]
//	frostctl -tents N [-hosts-per-tent 9] [-shards K] [-seed SEED] [-days N] [-csv DIR] [-save out.json]
//	frostctl -phase chaos [-seed SEED] [-down SCHEDULE] [-stalled SCHEDULE] [-trace out.json]
//	frostctl -phase control [-seed SEED] [-control-setpoint C] [-control-mode pid|hysteresis] [-control-stuck from-to]
//	frostctl -phase serve|alerts [-seed SEED] [-save report.json]
//	frostctl -phase econ [-seed SEED] [-days N] [-save report.json]
//	frostctl -list-climates | -list-policies
//
// Each form reads only the flags it lists; any other flag is an error.
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
// (keepalive pool, bounded ingest, admission control), sized by loadgen's
// default configuration.
// -phase alerts runs the E16 detection-latency study: every injectable
// fault class against the rules engine, measuring MTTD per class and
// checking replay byte-identity.
// -phase econ runs the E17 economics study: the multi-site fleet (one
// site per climate family, each on its geographic tariff) swept over
// placement policy x fleet x price regime, reporting $ and gCO2 per
// completed work-cycle.
// -save writes what the run produced: the run's results archive for the
// normal phase and -tents, the study's report as JSON for serve, alerts
// and econ. Serve, alerts and econ exit non-zero when their gate rejects
// the report.
// -list-climates and -list-policies print the scenario and policy
// libraries with their parameter defaults and exit.
// -trace records the run as Chrome trace-event JSON — open it in
// chrome://tracing or https://ui.perfetto.dev to see the experiment
// timeline: per-host outage spans, install/repair instants, monitoring
// rounds, and tent-power / coverage counter tracks.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/hardware"
	"frostlab/internal/loadgen"
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

// options holds every flag's value. A study reads only the flags its
// row of studies names.
type options struct {
	seed, phase, id             string
	monitor                     time.Duration
	days                        int
	csv, save, load, md, trace  string
	tents, hostsPerTent, shards int
	listClimates, listPolicies  bool
	down, stalled               string
	setpoint                    float64
	mode, stuck                 string
}

// A study is one row of frostctl's dispatch table.
type study struct {
	// phase is the -phase value that selects the row; "" marks a row
	// that a flag of its own selects within the normal phase.
	phase string
	// label names the row in errors.
	label string
	// reads lists the flags the study reads besides -phase. Any other
	// flag set with it is an error.
	reads []string
	// run runs the study and returns what -save writes: a *core.Results
	// archive, a study report, or nil.
	run func(ctx context.Context, stdout io.Writer, o *options) (any, error)
	// gate, when set, judges the result; its error is the exit status.
	gate func(result any) error
}

var studies = []study{
	{"all", "the normal phase", []string{"seed", "id", "monitor", "days", "csv", "save", "load", "md", "trace"}, runNormalPhase, nil},
	{"", "-tents", []string{"seed", "tents", "hosts-per-tent", "shards", "days", "csv", "save"}, runScaleFleet, nil},
	{"", "-list-climates/-list-policies", []string{"list-climates", "list-policies"}, runLists, nil},
	{"chaos", "-phase chaos", []string{"seed", "down", "stalled", "trace"}, runChaosStudy, nil},
	{"control", "-phase control", []string{"seed", "control-setpoint", "control-mode", "control-stuck"}, runControlStudy, nil},
	{"serve", "-phase serve", []string{"seed", "save"}, func(ctx context.Context, stdout io.Writer, o *options) (any, error) {
		return runServeStudy(ctx, stdout, loadgen.Config{Seed: o.seed + "/serve"})
	}, judge(serveGate)},
	{"alerts", "-phase alerts", []string{"seed", "save"}, runAlertsStudy, judge(alertsGate)},
	{"econ", "-phase econ", []string{"seed", "save", "days"}, runEconStudy, judge(econGate)},
}

// judge adapts a study's typed gate to the table.
func judge[R any](gate func(R) error) func(any) error {
	return func(result any) error { return gate(result.(R)) }
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("frostctl", flag.ContinueOnError)
	fs.StringVar(&o.seed, "seed", core.ReferenceSeed, "master RNG seed")
	fs.StringVar(&o.phase, "phase", "all", "all | chaos | control | serve | alerts | econ")
	fs.StringVar(&o.id, "id", "all", "print only this report.Catalogue artefact of the normal phase (all = every one)")
	fs.DurationVar(&o.monitor, "monitor", 20*time.Minute, "monitoring cadence (0 disables the rsync plane)")
	fs.IntVar(&o.days, "days", 0, "days to simulate: the normal phase's or -tents' length, or each -phase econ cell's (0 = the paper horizon, or econ's 28 days)")
	fs.StringVar(&o.csv, "csv", "", "write temperature/humidity CSVs into this directory")
	fs.StringVar(&o.save, "save", "", "write the run's results (normal phase, -tents) or the study's report (-phase serve, alerts, econ) as JSON to this file")
	fs.StringVar(&o.load, "load", "", "skip the simulation; render a previously saved run")
	fs.StringVar(&o.md, "md", "", "write a complete markdown run report to this file")
	fs.StringVar(&o.trace, "trace", "", "write the run (normal phase, -phase chaos) as Chrome trace-event JSON to this file")
	fs.IntVar(&o.tents, "tents", 0, "run the sharded scale engine over a synthetic fleet of this many tents (0 = the paper's paired fleet)")
	fs.IntVar(&o.hostsPerTent, "hosts-per-tent", 9, "hosts per synthetic tent (with -tents)")
	fs.IntVar(&o.shards, "shards", 0, "shard count for the synthetic fleet; <= 0 selects GOMAXPROCS. Results are byte-identical at any shard count or GOMAXPROCS; more shards than cores adds overhead without speedup")
	fs.BoolVar(&o.listClimates, "list-climates", false, "print the scenario library (climate families and tariff presets) and exit")
	fs.BoolVar(&o.listPolicies, "list-policies", false, "print the site placement-policy library and exit")
	fs.StringVar(&o.down, "down", "", "crash schedule host=from-to[,host=from-to] for -phase chaos (rounds, open end: from-)")
	fs.StringVar(&o.stalled, "stalled", "", "stall schedule for -phase chaos, same syntax as -down")
	fs.Float64Var(&o.setpoint, "control-setpoint", float64(control.DefaultConfig().Setpoint), "ventilation setpoint in °C for -phase control")
	fs.StringVar(&o.mode, "control-mode", "pid", "pid | hysteresis controller law for -phase control")
	fs.StringVar(&o.stuck, "control-stuck", "", "scripted stuck-damper window as control-tick range from-to for -phase control (empty = healthy actuator)")
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	if o.days < 0 {
		return fmt.Errorf("-days must not be negative, got %d", o.days)
	}
	if o.tents < 0 {
		return fmt.Errorf("-tents must not be negative, got %d", o.tents)
	}

	s, err := pick(&o)
	if err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) {
		if err == nil && f.Name != "phase" && !slices.Contains(s.reads, f.Name) {
			err = fmt.Errorf("-%s only applies to %s, not %s", f.Name, readers(f.Name), s.label)
		}
	})
	if err != nil {
		return err
	}

	result, err := s.run(ctx, stdout, &o)
	if err != nil {
		return err
	}
	if o.save != "" {
		if err := save(stdout, o.save, result); err != nil {
			return err
		}
	}
	if s.gate == nil {
		return nil
	}
	return s.gate(result)
}

// pick returns the study the flags select: -tents and the -list flags
// select rows of their own within the normal phase, -phase the others.
func pick(o *options) (study, error) {
	label := ""
	switch {
	case o.tents > 0:
		label = "-tents"
	case o.listClimates || o.listPolicies:
		label = "-list-climates/-list-policies"
	}
	if label != "" && o.phase != "all" {
		return study{}, fmt.Errorf("%s only applies to the normal phase, not -phase %s", label, o.phase)
	}
	var phases []string
	for _, s := range studies {
		if label != "" && s.label == label || label == "" && s.phase != "" && s.phase == o.phase {
			return s, nil
		}
		if s.phase != "" {
			phases = append(phases, s.phase)
		}
	}
	return study{}, fmt.Errorf("unknown -phase %q (want %s)", o.phase, strings.Join(phases, " | "))
}

// readers names the studies that read flag name, for an error message.
func readers(name string) string {
	var labels []string
	for _, s := range studies {
		if slices.Contains(s.reads, name) {
			labels = append(labels, s.label)
		}
	}
	if n := len(labels); n > 1 {
		return strings.Join(labels[:n-1], ", ") + " and " + labels[n-1]
	}
	return labels[0]
}

// runNormalPhase runs the paper's normal phase, or with -load renders a
// saved one, and prints -id's artefacts of report.Catalogue.
func runNormalPhase(ctx context.Context, stdout io.Writer, o *options) (any, error) {
	arts := report.Catalogue
	if o.id != "all" {
		a, ok := report.ArtefactByID(strings.ToLower(o.id))
		if !ok {
			return nil, fmt.Errorf("unknown artefact id %q", o.id)
		}
		arts = []report.Artefact{a}
	}

	// The headers belong to the full output: -id X prints X's block alone.
	whole := o.id == "all"
	var r *core.Results
	switch {
	case o.load != "":
		f, err := os.Open(o.load)
		if err != nil {
			return nil, err
		}
		r, err = core.LoadResults(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if whole {
			fmt.Fprintf(stdout, "Rendering saved run %s (seed %q, %s – %s)\n\n",
				o.load, r.Seed, r.Start.Format("Jan 02"), r.End.Format("Jan 02"))
		}
	// A shorter -days window also moves the savings table's, so only the
	// paper horizon may skip the run for an artefact that needs none.
	case whole || arts[0].NeedsRun || o.days > 0 || o.save != "" || o.csv != "" || o.md != "" || o.trace != "":
		cfg := core.DefaultConfig(o.seed)
		cfg.MonitorEvery = o.monitor
		if o.days > 0 {
			cfg.End = cfg.Start.AddDate(0, 0, o.days)
		}
		if whole {
			fmt.Fprintf(stdout, "Running normal phase %s – %s (seed %q, monitoring %v)...\n\n",
				cfg.Start.Format("Jan 02"), cfg.End.Format("Jan 02"), o.seed, o.monitor)
		}
		exp, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		var tracer *telemetry.Tracer
		if o.trace != "" {
			tracer = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
			exp.WithTracer(tracer)
		}
		if r, err = exp.RunContext(ctx); err != nil {
			return nil, err
		}
		if tracer != nil {
			if err := writeFile(o.trace, tracer.WriteChromeTrace); err != nil {
				return nil, err
			}
			fmt.Fprintf(stdout, "Chrome trace (%d events, %d dropped) written to %s\n\n",
				tracer.Len(), tracer.Dropped(), o.trace)
		}
	}

	for _, a := range arts {
		s, err := a.Render(o.seed, r)
		if err != nil {
			return nil, err
		}
		if s != "" {
			fmt.Fprintln(stdout, s)
		}
	}

	if o.csv != "" {
		if err := writeCSVs(stdout, o.csv, r); err != nil {
			return nil, err
		}
	}
	if o.md != "" {
		md, err := report.Markdown(r)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(o.md, []byte(md), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "Markdown report written to %s\n", o.md)
	}
	return r, nil
}

// runLists prints the scenario and placement-policy libraries.
func runLists(_ context.Context, stdout io.Writer, o *options) (any, error) {
	if o.listClimates {
		listClimates(stdout)
	}
	if o.listPolicies {
		if o.listClimates {
			fmt.Fprintln(stdout)
		}
		listPolicies(stdout)
	}
	return nil, nil
}

// runScaleFleet runs the sharded scale engine (-tents) and prints
// fleet-level aggregates: at 10k+ hosts the per-host tables of the paper
// reproduction stop being readable, so the scale path reports rates,
// energy, and throughput instead.
func runScaleFleet(ctx context.Context, stdout io.Writer, o *options) (any, error) {
	fleet, err := hardware.SyntheticFleet(o.tents, o.hostsPerTent, o.seed)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(o.seed)
	cfg.Fleet = fleet
	cfg.MonitorEvery = 0
	if o.days > 0 {
		cfg.End = cfg.Start.AddDate(0, 0, o.days)
	}
	shards := o.shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	exp, err := core.NewSharded(cfg, shards)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "Running synthetic fleet %s – %s: %d tents × %d hosts = %d hosts in %d shards (seed %q)...\n\n",
		cfg.Start.Format("Jan 02"), cfg.End.Format("Jan 02"),
		o.tents, o.hostsPerTent, exp.Hosts(), exp.Shards(), o.seed)
	wallStart := time.Now()
	r, err := exp.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	wall := time.Since(wallStart)

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

	if o.csv != "" {
		if err := writeCSVs(stdout, o.csv, r); err != nil {
			return nil, err
		}
	}
	return r, nil
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

// save writes a study's result to path, for -save: a run as a
// core.SaveResults archive, a study report as indented JSON.
func save(stdout io.Writer, path string, result any) error {
	err := writeFile(path, func(w io.Writer) error {
		if r, ok := result.(*core.Results); ok {
			return core.SaveResults(w, r)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(result)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Results saved to %s\n", path)
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
