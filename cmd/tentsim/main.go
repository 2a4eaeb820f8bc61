// tentsim is a standalone what-if tool for the tent thermal model: given an
// equipment load and a set of envelope modifications, it reports the tent's
// equilibrium temperature rise and a day-by-day trace against the synthetic
// winter.
//
// Usage:
//
//	tentsim [-power 1400] [-mods RIBF] [-days 7] [-seed winter0910]
//
// For a synthetic fleet of tents on the sharded scale engine, use
// frostctl -tents.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"frostlab/internal/thermal"
	"frostlab/internal/units"
	"frostlab/internal/weather"
)

func main() {
	os.Exit(exitCode(run(context.Background(), os.Args[1:], os.Stdout)))
}

// exitCode prints err on stderr, unless the FlagSet has already printed
// it with the usage, and returns the exit status: 0 after success or -h.
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if !errors.As(err, new(flagError)) {
		fmt.Fprintln(os.Stderr, "tentsim:", err)
	}
	return 1
}

// flagError is a parse error the FlagSet has already reported.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

func run(_ context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tentsim", flag.ContinueOnError)
	powerW := fs.Float64("power", 1400, "equipment heat load in watts")
	mods := fs.String("mods", "", "modifications to apply, letters from RIBF")
	days := fs.Int("days", 7, "simulated days")
	seed := fs.String("seed", "winter0910", "weather seed")
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}

	if p := *powerW; math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
		return fmt.Errorf("-power must be a finite, non-negative number of watts, got %v", p)
	}
	if *days <= 0 {
		return fmt.Errorf("-days must be positive")
	}
	tent := thermal.NewTent()
	for _, c := range strings.ToUpper(*mods) {
		switch c {
		case 'R':
			tent.Apply(thermal.ReflectiveFoil)
		case 'I':
			tent.Apply(thermal.RemoveInnerTent)
		case 'B':
			tent.Apply(thermal.OpenBottom)
		case 'F':
			tent.Apply(thermal.InstallFan)
		default:
			return fmt.Errorf("unknown modification %q (use letters from RIBF)", string(c))
		}
	}
	wx := weather.ReferenceWinter0910(*seed)
	start := weather.ExperimentEpoch
	fmt.Fprintf(stdout, "%-8s %10s %10s %8s %8s\n", "day", "out °C", "in °C", "ΔT", "RH in")
	var sumDT float64
	var n int
	for at := start; at.Before(start.AddDate(0, 0, *days)); at = at.Add(time.Minute) {
		out := wx.At(at)
		if err := tent.Step(time.Minute, out, units.Watts(*powerW)); err != nil {
			return err
		}
		sumDT += float64(tent.DeltaT())
		if math.IsInf(sumDT, 0) || math.IsNaN(sumDT) {
			return fmt.Errorf("the tent model overflows at %v W", *powerW)
		}
		n++
		if at.Hour() == 12 && at.Minute() == 0 {
			in, rh := tent.Air()
			fmt.Fprintf(stdout, "%-8s %10.1f %10.1f %8.1f %7.0f%%\n",
				at.Format("Jan 02"), float64(out.Temp), float64(in), float64(tent.DeltaT()), float64(rh))
		}
	}
	fmt.Fprintf(stdout, "\nmean ΔT over %d days at %.0f W with mods %q: %.1f °C\n",
		*days, *powerW, strings.ToUpper(*mods), sumDT/float64(n))
	return nil
}
