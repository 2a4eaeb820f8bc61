// weathergen generates synthetic Helsinki-winter weather traces (the SMEAR
// III stand-in), or any internal/climate family with -climate, as CSV, for
// replay with weather.ReadTraceCSV or external analysis.
//
// Usage:
//
//	weathergen [-seed SEED] [-climate NAME] [-from 2010-02-12] [-days 42] [-step 10m] [-o trace.csv]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"frostlab/internal/climate"
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
		fmt.Fprintln(os.Stderr, "weathergen:", err)
	}
	return 1
}

// flagError is a parse error the FlagSet has already reported.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

func run(_ context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("weathergen", flag.ContinueOnError)
	seed := fs.String("seed", "winter0910", "weather RNG seed")
	family := fs.String("climate", "", fmt.Sprintf("climate family %v instead of the calibrated reference winter", climate.Names()))
	fromStr := fs.String("from", "2010-02-12", "trace start date (YYYY-MM-DD)")
	days := fs.Int("days", 42, "trace length in days")
	step := fs.Duration("step", 10*time.Minute, "sample interval")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}

	from, err := time.Parse("2006-01-02", *fromStr)
	if err != nil {
		return fmt.Errorf("parsing -from: %w", err)
	}
	if *days <= 0 {
		return fmt.Errorf("-days must be positive")
	}
	var m weather.Model = weather.ReferenceWinter0910(*seed)
	if *family != "" {
		f, err := climate.Lookup(*family)
		if err != nil {
			return err
		}
		if m, err = f.Model(from.UTC(), *seed); err != nil {
			return err
		}
	}
	write := func(w io.Writer) error {
		return weather.WriteTraceCSV(w, m, from.UTC(), from.UTC().AddDate(0, 0, *days), *step)
	}
	if *out == "" {
		return write(stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
