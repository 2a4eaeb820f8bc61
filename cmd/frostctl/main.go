// frostctl runs the full reproduction end to end: the Feb 19 – Mar 26
// normal phase, then every artefact of report.Catalogue in its order —
// Figs. 1–4, the lm-sensors CPU figure, the §4 failure, hash, memory and
// sensor tables, the monitoring and coverage tables of a monitored run,
// the §5 analyses, the event log, the PUE table, the §3.1 prototype
// weekend (re-run for the run's seed) and the economizer savings.
// -phase normal leaves out the prototype; -phase prototype prints only it.
// -load renders a saved run the same way, with the saved run's seed.
//
// Usage:
//
//	frostctl [-seed SEED] [-phase all|prototype|normal|chaos|control|serve|alerts|econ] [-monitor 20m]
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
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"frostlab/internal/core"
	"frostlab/internal/hardware"
	"frostlab/internal/report"
	"frostlab/internal/telemetry"
	"frostlab/internal/timeseries"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "frostctl:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.String("seed", core.ReferenceSeed, "master RNG seed")
	phase := flag.String("phase", "all", "all | prototype | normal | chaos | control | serve | alerts | econ")
	monitor := flag.Duration("monitor", 20*time.Minute, "monitoring cadence (0 disables the rsync plane)")
	days := flag.Int("days", 0, "override the normal-phase length in days (0 = paper horizon)")
	csvDir := flag.String("csv", "", "write temperature/humidity CSVs into this directory")
	saveTo := flag.String("save", "", "save the run's results as JSON to this file")
	loadFrom := flag.String("load", "", "skip the simulation; render a previously saved run")
	mdTo := flag.String("md", "", "write a complete markdown run report to this file")
	traceTo := flag.String("trace", "", "write the run as Chrome trace-event JSON to this file")
	tents := flag.Int("tents", 0, "run the sharded scale engine over a synthetic fleet of this many tents (0 = the paper's paired fleet)")
	hostsPerTent := flag.Int("hosts-per-tent", 9, "hosts per synthetic tent (with -tents)")
	shards := flag.Int("shards", 0, "shard count for the synthetic fleet; <= 0 selects GOMAXPROCS. Results are byte-identical at any shard count or GOMAXPROCS; more shards than cores adds overhead without speedup")
	listClim := flag.Bool("list-climates", false, "print the scenario library (climate families and tariff presets) and exit")
	listPol := flag.Bool("list-policies", false, "print the site placement-policy library and exit")
	ch := chaosFlags()
	co := controlFlags()
	se := serveFlags()
	alertsOut := flag.String("alerts-out", "BENCH_ALERTS.json", "write the E16 study report as JSON to this file (\"\" disables)")
	eo := econFlags()
	flag.Parse()

	switch *phase {
	case "all", "prototype", "normal", "chaos", "control", "serve", "alerts", "econ":
	default:
		return fmt.Errorf("unknown -phase %q (want all | prototype | normal | chaos | control | serve | alerts | econ)", *phase)
	}

	if *days < 0 {
		return fmt.Errorf("-days must not be negative, got %d", *days)
	}

	if *listClim || *listPol {
		if *listClim {
			listClimates()
		}
		if *listPol {
			if *listClim {
				fmt.Println()
			}
			listPolicies()
		}
		return nil
	}

	if *tents > 0 {
		if *phase != "all" && *phase != "normal" {
			return fmt.Errorf("-tents only applies to the normal phase, not -phase %s", *phase)
		}
		return runScaleFleet(*seed, *tents, *hostsPerTent, *shards, *days, *saveTo, *csvDir)
	}

	if *phase == "chaos" {
		return runChaosStudy(*seed, ch, *traceTo)
	}
	if *phase == "control" {
		return runControlStudy(*seed, co)
	}
	if *phase == "alerts" {
		return runAlertsStudy(*seed, *alertsOut)
	}
	if *phase == "econ" {
		return runEconStudy(*seed, eo)
	}
	if *phase == "serve" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runServeStudy(ctx, *seed, se)
	}

	if *phase == "prototype" {
		proto, _ := report.ArtefactByID("prototype")
		s, err := proto.Render(*seed, nil)
		if err != nil {
			return err
		}
		fmt.Println(s)
		return nil
	}

	var r *core.Results
	if *loadFrom != "" {
		f, err := os.Open(*loadFrom)
		if err != nil {
			return err
		}
		r, err = core.LoadResults(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Printf("Rendering saved run %s (seed %q, %s – %s)\n\n",
			*loadFrom, r.Seed, r.Start.Format("Jan 02"), r.End.Format("Jan 02"))
	} else {
		cfg := core.DefaultConfig(*seed)
		cfg.MonitorEvery = *monitor
		if *days > 0 {
			cfg.End = cfg.Start.AddDate(0, 0, *days)
		}
		fmt.Printf("Running normal phase %s – %s (seed %q, monitoring %v)...\n\n",
			cfg.Start.Format("Jan 02"), cfg.End.Format("Jan 02"), *seed, *monitor)
		exp, err := core.New(cfg)
		if err != nil {
			return err
		}
		var tracer *telemetry.Tracer
		if *traceTo != "" {
			tracer = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
			exp.WithTracer(tracer)
		}
		r, err = exp.Run()
		if err != nil {
			return err
		}
		if tracer != nil {
			if err := writeTrace(*traceTo, tracer); err != nil {
				return err
			}
			fmt.Printf("Chrome trace (%d events, %d dropped) written to %s\n\n",
				tracer.Len(), tracer.Dropped(), *traceTo)
		}
	}
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			return err
		}
		if err := core.SaveResults(f, r); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("Results saved to %s\n\n", *saveTo)
	}

	for _, a := range report.Catalogue {
		if *phase == "normal" && a.ID == "prototype" {
			continue
		}
		s, err := a.Render(r.Seed, r)
		if err != nil {
			return err
		}
		if s != "" {
			fmt.Println(s)
		}
	}

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, r); err != nil {
			return err
		}
		fmt.Printf("CSV series written to %s\n", *csvDir)
	}
	if *mdTo != "" {
		md, err := report.Markdown(r)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*mdTo, []byte(md), 0o644); err != nil {
			return err
		}
		fmt.Printf("Markdown report written to %s\n", *mdTo)
	}
	return nil
}

// runScaleFleet runs the sharded scale engine (-tents) and prints
// fleet-level aggregates: at 10k+ hosts the per-host tables of the paper
// reproduction stop being readable, so the scale path reports rates,
// energy, and throughput instead.
func runScaleFleet(seed string, tents, hostsPerTent, shards, days int, saveTo, csvDir string) error {
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
	fmt.Printf("Running synthetic fleet %s – %s: %d tents × %d hosts = %d hosts in %d shards (seed %q)...\n\n",
		cfg.Start.Format("Jan 02"), cfg.End.Format("Jan 02"),
		tents, hostsPerTent, exp.Hosts(), exp.Shards(), seed)
	wallStart := time.Now()
	r, err := exp.Run()
	if err != nil {
		return err
	}
	wall := time.Since(wallStart)

	if saveTo != "" {
		f, err := os.Create(saveTo)
		if err != nil {
			return err
		}
		if err := core.SaveResults(f, r); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("Results saved to %s\n\n", saveTo)
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
	fmt.Println(report.TableFailureRates(r))
	if in, err := r.InsideTemp.Summarize(); err == nil {
		fmt.Printf("Tent air: min %.1f °C, mean %.1f °C, max %.1f °C over %d samples\n",
			in.Min, in.Mean, in.Max, in.N)
	}
	fmt.Printf("Transient failures: %d (%d hosts relocated indoors)\n", transients, relocated)
	fmt.Printf("Storage lost: %d hosts\n", storageLost)
	fmt.Printf("Wrong hashes: %d incidents over %d workload cycles\n", len(r.WrongHashes), r.TotalCycles)
	fmt.Printf("Tent-feed energy: %.0f kWh\n", float64(r.TentEnergy))
	hours := cfg.End.Sub(cfg.Start).Hours()
	fmt.Printf("Wall clock: %v (%.1f ns/host-hour)\n",
		wall.Round(time.Millisecond),
		float64(wall.Nanoseconds())/(float64(exp.Hosts())*hours))

	if csvDir != "" {
		if err := writeCSVs(csvDir, r); err != nil {
			return err
		}
		fmt.Printf("CSV series written to %s\n", csvDir)
	}
	return nil
}

func writeTrace(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeCSVs(dir string, r *core.Results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, s := range map[string]*timeseries.Series{
		"outside_temp.csv": r.OutsideTemp,
		"outside_rh.csv":   r.OutsideRH,
		"inside_temp.csv":  r.InsideTemp,
		"inside_rh.csv":    r.InsideRH,
	} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := s.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
