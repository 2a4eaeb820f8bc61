// figures regenerates individual paper artefacts by id. It is the
// per-experiment entry point indexed in DESIGN.md §3; the ids and their
// order are report.Catalogue's.
//
// Usage:
//
//	figures -id fig1|fig2|fig3|fig4|cpu|failures|hashes|memory|lmsensors|
//	            monitoring|coverage|analysis|events|pue|prototype|savings|
//	            control|all
//	        [-seed SEED] [-monitor 0]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	id := fs.String("id", "all", "artefact id (see usage)")
	seed := fs.String("seed", core.ReferenceSeed, "master RNG seed")
	monitor := fs.Duration("monitor", 0, "monitoring cadence for the run (0 = off, fastest)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	want := strings.ToLower(*id)
	arts := report.Catalogue
	if want != "all" {
		a, ok := report.ArtefactByID(want)
		if !ok {
			return fmt.Errorf("unknown artefact id %q", want)
		}
		arts = []report.Artefact{a}
	}

	var r *core.Results
	if want == "all" || arts[0].NeedsRun {
		cfg := core.DefaultConfig(*seed)
		cfg.MonitorEvery = *monitor
		if (want == "monitoring" || want == "coverage") && *monitor == 0 {
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
		if r, err = exp.Run(); err != nil {
			return err
		}
	}

	for _, a := range arts {
		s, err := a.Render(*seed, r)
		if err != nil {
			return err
		}
		if s != "" {
			fmt.Fprintln(out, s)
		}
	}
	return nil
}
