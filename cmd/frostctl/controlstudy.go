package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"frostlab/internal/chaos"
	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/report"
	"frostlab/internal/units"
)

// The E14 free-cooling control study (-phase control): the same winter and
// spring scenarios are run open-loop (the paper's R/I/B/F calendar) and
// closed-loop (internal/control's ventilation controller with the
// envelope/dew-point supervisor), and the intake's residency in the
// allowable envelope is measured identically for every arm, post hoc from
// the logger series. The closed arms also render the setpoint/PV dual
// track and the controller's accounting.

// controlScenario is one row pair of the study.
type controlScenario struct {
	name string
	days int // 0 = the paper horizon
}

// controlRunConfig is the run E14's arms and E16's damper arm share: the
// reference winter with the Lascar logger recording from day one and no
// readouts, under ctl (nil: the paper's open-loop calendar).
func controlRunConfig(seed string, ctl *control.Config) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.LascarArrival = cfg.Start
	cfg.ReadoutEvery = 0
	cfg.Control = ctl
	return cfg
}

func runControlStudy(ctx context.Context, stdout io.Writer, o *options) (any, error) {
	cc := control.DefaultConfig()
	cc.Setpoint = units.Celsius(o.setpoint)
	switch o.mode {
	case "pid":
		cc.Mode = control.ModePID
	case "hysteresis":
		cc.Mode = control.ModeHysteresis
	default:
		return nil, fmt.Errorf("unknown control mode %q (want pid or hysteresis)", o.mode)
	}
	var actuator *chaos.ActuatorSpec
	if o.stuck != "" {
		ranges, err := parseSchedule("damper=" + o.stuck)
		if err != nil {
			return nil, err
		}
		actuator = &chaos.ActuatorSpec{Stuck: ranges}
	}

	scenarios := []controlScenario{
		{name: "winter0910", days: 0},
		{name: "springmelt", days: 84},
	}
	var rows []report.ControlRow
	var closedFigs []string
	for _, sc := range scenarios {
		for _, arm := range []string{"open-loop", "closed-loop"} {
			var ctl *control.Config
			if arm == "closed-loop" {
				ctlCfg := cc
				ctl = &ctlCfg
			}
			cfg := controlRunConfig(o.seed, ctl)
			cfg.MonitorEvery = 0 // the rsync plane contributes nothing here
			if ctl != nil {
				cfg.ActuatorChaos = actuator
			}
			if sc.days > 0 {
				cfg.End = cfg.Start.AddDate(0, 0, sc.days)
			}
			fmt.Fprintf(stdout, "Running %s %s %s – %s (seed %q)...\n", sc.name, arm,
				cfg.Start.Format("Jan 02"), cfg.End.Format("Jan 02"), o.seed)
			start := time.Now()
			exp, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			r, err := exp.RunContext(ctx)
			if err != nil {
				return nil, err
			}
			frac, n := report.EnvelopeResidency(r, units.FrostAllowable)
			row := report.ControlRow{
				Scenario:         sc.name,
				Arm:              arm,
				EnvelopeFraction: frac,
				Samples:          n,
				TentEnergyKWh:    float64(r.TentEnergy),
			}
			if r.Control != nil {
				row.GuardTrips = r.Control.Stats.GuardTrips
				row.FallbackTicks = r.Control.Stats.FallbackTicks
				fig, err := report.FigControl(r)
				if err != nil {
					return nil, err
				}
				closedFigs = append(closedFigs, fmt.Sprintf("[%s closed-loop]\n\n%s", sc.name, fig))
			}
			rows = append(rows, row)
			fmt.Fprintf(stdout, "  done in %.1fs\n", time.Since(start).Seconds())
		}
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, report.TableControlStudy(rows))
	for _, fig := range closedFigs {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, fig)
	}
	return nil, nil
}
