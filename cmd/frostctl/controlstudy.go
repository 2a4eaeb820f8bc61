package main

import (
	"context"
	"flag"
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

type controlOpts struct {
	setpoint *float64
	mode     *string
	stuck    *string
}

func controlFlags(fs *flag.FlagSet) controlOpts {
	return controlOpts{
		setpoint: fs.Float64("control-setpoint", float64(control.DefaultConfig().Setpoint),
			"ventilation setpoint in °C for -phase control"),
		mode: fs.String("control-mode", "pid", "pid | hysteresis controller law for -phase control"),
		stuck: fs.String("control-stuck", "",
			"scripted stuck-damper window as control-tick range from-to (empty = healthy actuator)"),
	}
}

// controlScenario is one row pair of the study.
type controlScenario struct {
	name string
	days int // 0 = the paper horizon
}

func runControlStudy(ctx context.Context, stdout io.Writer, seed string, co controlOpts) error {
	cc := control.DefaultConfig()
	cc.Setpoint = units.Celsius(*co.setpoint)
	switch *co.mode {
	case "pid":
		cc.Mode = control.ModePID
	case "hysteresis":
		cc.Mode = control.ModeHysteresis
	default:
		return fmt.Errorf("unknown control mode %q (want pid or hysteresis)", *co.mode)
	}
	var actuator *chaos.ActuatorSpec
	if *co.stuck != "" {
		ranges, err := parseSchedule("damper=" + *co.stuck)
		if err != nil {
			return err
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
			cfg := core.DefaultConfig(seed)
			cfg.MonitorEvery = 0 // the rsync plane contributes nothing here
			cfg.LascarArrival = cfg.Start
			cfg.ReadoutEvery = 0
			if sc.days > 0 {
				cfg.End = cfg.Start.AddDate(0, 0, sc.days)
			}
			if arm == "closed-loop" {
				ctlCfg := cc
				cfg.Control = &ctlCfg
				cfg.ActuatorChaos = actuator
			}
			fmt.Fprintf(stdout, "Running %s %s %s – %s (seed %q)...\n", sc.name, arm,
				cfg.Start.Format("Jan 02"), cfg.End.Format("Jan 02"), seed)
			start := time.Now()
			exp, err := core.New(cfg)
			if err != nil {
				return err
			}
			r, err := exp.RunContext(ctx)
			if err != nil {
				return err
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
					return err
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
	return nil
}
