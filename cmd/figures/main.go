// figures regenerates individual paper artefacts by id. It is the
// per-experiment entry point indexed in DESIGN.md §3.
//
// Usage:
//
//	figures -id fig1|fig2|fig3|fig4|failures|hashes|memory|pue|prototype|
//	            lmsensors|savings|monitoring|events|control|all
//	        [-seed SEED] [-monitor 0]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/power"
	"frostlab/internal/report"
	"frostlab/internal/weather"
)

// needsRun lists the ids that require the normal-phase experiment.
var needsRun = map[string]bool{
	"fig2": true, "fig3": true, "fig4": true, "failures": true,
	"hashes": true, "memory": true, "lmsensors": true, "monitoring": true,
	"events": true, "analysis": true, "cpu": true, "control": true, "all": true,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() error {
	id := flag.String("id", "all", "artefact id (see usage)")
	seed := flag.String("seed", core.ReferenceSeed, "master RNG seed")
	monitor := flag.Duration("monitor", 0, "monitoring cadence for the run (0 = off, fastest)")
	flag.Parse()

	want := strings.ToLower(*id)
	emit := func(name, s string) {
		if want == "all" || want == name {
			fmt.Println(s)
		}
	}

	var r *core.Results
	if needsRun[want] {
		cfg := core.DefaultConfig(*seed)
		cfg.MonitorEvery = *monitor
		if want == "monitoring" && *monitor == 0 {
			cfg.MonitorEvery = 20 * time.Minute
		}
		if want == "control" {
			// The control figure needs a closed-loop run with the logger
			// recording from day one.
			cc := control.DefaultConfig()
			cfg.Control = &cc
			cfg.LascarArrival = cfg.Start
			cfg.ReadoutEvery = 0
		}
		exp, err := core.New(cfg)
		if err != nil {
			return err
		}
		r, err = exp.Run()
		if err != nil {
			return err
		}
	}

	switch want {
	case "fig1", "fig2", "fig3", "fig4", "failures", "hashes", "memory",
		"pue", "prototype", "lmsensors", "savings", "monitoring", "events",
		"analysis", "cpu", "control", "all":
	default:
		return fmt.Errorf("unknown artefact id %q", want)
	}

	emit("fig1", report.Fig1Schematic())
	if r != nil {
		if s, err := report.Fig2Timeline(r); err == nil {
			emit("fig2", s)
		} else {
			return err
		}
		if s, err := report.Fig3Temperatures(r); err == nil {
			emit("fig3", s)
		} else {
			return err
		}
		if s, err := report.Fig4Humidity(r); err == nil {
			emit("fig4", s)
		} else {
			return err
		}
		if want == "all" || want == "cpu" {
			if s, err := report.FigCPUTemperatures(r); err == nil {
				emit("cpu", s)
			} else {
				return err
			}
		}
		if want == "control" {
			s, err := report.FigControl(r)
			if err != nil {
				return err
			}
			emit("control", s)
		}
		emit("failures", report.TableFailureRates(r))
		emit("hashes", report.TableWrongHashes(r))
		emit("memory", report.TableMemoryModel(r))
		emit("lmsensors", report.TableSensorFault(r))
		if r.MonitorRounds > 0 {
			emit("monitoring", report.TableMonitoring(r))
		}
		if want == "all" || want == "analysis" {
			a, err := report.RunAnalyses(r)
			if err != nil {
				return err
			}
			emit("analysis", a)
		}
		emit("events", report.EventLog(r))
	}
	if want == "all" || want == "pue" {
		s, err := report.TablePUE()
		if err != nil {
			return err
		}
		fmt.Println(s)
	}
	if want == "all" || want == "prototype" {
		p, err := core.RunPrototype(*seed)
		if err != nil {
			return err
		}
		fmt.Println(report.TablePrototype(p))
	}
	if want == "all" || want == "savings" {
		wx := weather.ReferenceWinter0910(*seed)
		cfg := core.DefaultConfig(*seed)
		cmp, err := power.DefaultEconomizer().Compare(wx, 75_000, cfg.Start, cfg.End, time.Hour)
		if err != nil {
			return err
		}
		fmt.Println(report.TableEconomizer(cmp))
	}
	return nil
}
