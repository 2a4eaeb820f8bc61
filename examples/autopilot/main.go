// Autopilot: replace the paper's hand-scheduled R/I/B/F envelope ladder
// with the closed-loop free-cooling controller and compare the two on the
// same winter. The controller modulates a continuous ventilation damper
// toward a tent-intake setpoint, duty-cycles the servers when the tent
// leaves the comfortable range, and is overridden by the allowable-envelope
// and dew-point supervisor whenever the primary loop would push the intake
// somewhere unsafe.
//
//	go run ./examples/autopilot
package main

import (
	"fmt"
	"log"

	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/report"
	"frostlab/internal/units"
)

func main() {
	// Both arms share the configuration: the paper's winter, with the
	// logger recording from day one so envelope residency is measured
	// over the full window for open- and closed-loop alike.
	base := core.DefaultConfig(core.ReferenceSeed)
	base.MonitorEvery = 0
	base.LascarArrival = base.Start
	base.ReadoutEvery = 0

	run := func(cfg core.Config) *core.Results {
		exp, err := core.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		r, err := exp.Run()
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	// Arm 1: the paper's open-loop calendar (R/I/B/F on fixed dates).
	open := run(base)

	// Arm 2: the closed loop. DefaultConfig is a PID law toward 12 °C,
	// supervised by the frost-hardened allowable envelope and a 1.5 °C
	// dew-point margin; the law's mode, setpoint and period are Config
	// fields, its tuning is fixed (DESIGN.md §4).
	cc := control.DefaultConfig()
	closedCfg := base
	closedCfg.Control = &cc
	closed := run(closedCfg)

	openFrac, n := report.EnvelopeResidency(open, units.FrostAllowable)
	closedFrac, _ := report.EnvelopeResidency(closed, units.FrostAllowable)
	fmt.Printf("intake inside the allowable envelope (%d samples):\n", n)
	fmt.Printf("  open-loop ladder : %5.1f%%\n", openFrac*100)
	fmt.Printf("  closed-loop      : %5.1f%%\n\n", closedFrac*100)

	st := closed.Control.Stats
	fmt.Printf("controller: %d ticks, %.1f%% in band, %d guard trips, %d duty changes\n\n",
		st.Ticks, float64(st.InBand)/float64(st.Ticks)*100, st.GuardTrips, st.DutyChanges)

	fig, err := report.FigControl(closed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig)
}
