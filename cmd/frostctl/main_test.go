package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"frostlab/internal/loadgen"
	"frostlab/internal/report"
)

// runOut calls run in-process and returns what it printed.
func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(context.Background(), args, &out)
	return out.String(), err
}

// TestRun drives each toy-scale surface of the binary through run and
// checks its exit status and the lines that show it did its job.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		want []string // substrings of stdout, or of the error when wantErr
		// wantErr marks a row that must fail; want then matches the error.
		wantErr bool
		// call, when set, runs in place of run(args): a row that hands its
		// study a configuration no flag sets.
		call func(ctx context.Context, stdout io.Writer) error
	}{
		{"normal", []string{"-days", "2", "-monitor", "0"},
			[]string{"Running normal phase Feb 19 – Feb 21", "monitoring 0s", "Fig. 3"}, false, nil},
		{"tents", []string{"-tents", "2", "-days", "1"},
			[]string{"2 tents × 9 hosts = 18 hosts", "Tent-feed energy", "ns/host-hour"}, false, nil},
		{"chaos", []string{"-phase", "chaos"},
			[]string{"E13 monitoring-outage study: 9 hosts, 12 rounds", "round 12: coverage"}, false, nil},
		{"control", []string{"-phase", "control"},
			[]string{"Running springmelt closed-loop Feb 19 – May 14", "E14 — intake residency", "[winter0910 closed-loop]"}, false, nil},
		{"serve", nil, []string{"4 agents, 2 scrapers, 50 rps sustain, 250 rps spike", "collection:",
			"Results saved to " + filepath.Join(dir, "serve.json")}, false, func(ctx context.Context, stdout io.Writer) error {
			rep, err := runServeStudy(ctx, stdout, loadgen.Config{
				Seed: "toy/serve", Agents: 4, Scrapers: 2, SustainRate: 50,
				Warmup: 50 * time.Millisecond, Ramp: 50 * time.Millisecond,
				Sustain: 100 * time.Millisecond, Spike: 50 * time.Millisecond,
				RoundEvery: 20 * time.Millisecond,
			})
			if err != nil {
				return err
			}
			if err := save(stdout, filepath.Join(dir, "serve.json"), rep); err != nil {
				return err
			}
			data, err := os.ReadFile(filepath.Join(dir, "serve.json"))
			if err != nil {
				return err
			}
			var back loadgen.Report
			if err := json.Unmarshal(data, &back); err != nil {
				return err
			}
			if !reflect.DeepEqual(&back, rep) {
				return fmt.Errorf("saved report decodes to %+v, want %+v", back, *rep)
			}
			return serveGate(rep)
		}},
		{"alerts", []string{"-phase", "alerts", "-save", filepath.Join(dir, "alerts.json")},
			[]string{"stuck-damper   rule damper_stuck", "Results saved to " + filepath.Join(dir, "alerts.json")}, false, nil},
		{"econ", []string{"-phase", "econ", "-days", "2", "-save", filepath.Join(dir, "econ.json")},
			[]string{"12 cells, 2-day horizon", "(replay identical)", "Results saved to " + filepath.Join(dir, "econ.json")}, false, nil},
		{"list-climates", []string{"-list-climates"},
			[]string{"Scenario library (internal/climate):", "Tariff presets (internal/econ):"}, false, nil},
		{"negative days", []string{"-days", "-1"}, []string{"-days must not be negative"}, true, nil},
		{"negative tents", []string{"-tents", "-3"}, []string{"-tents must not be negative, got -3"}, true, nil},
		{"tents outside normal", []string{"-tents", "2", "-phase", "control"}, []string{"-phase control"}, true, nil},
		{"tents with id", []string{"-tents", "2", "-id", "fig3"}, []string{"-id only applies to the normal phase, not -tents"}, true, nil},
		{"save with chaos", []string{"-phase", "chaos", "-save", filepath.Join(dir, "chaos.json")},
			[]string{"-save only applies to the normal phase, -tents, -phase serve, -phase alerts and -phase econ, not -phase chaos"}, true, nil},
		{"save with control", []string{"-phase", "control", "-save", filepath.Join(dir, "control.json")},
			[]string{"-save only applies to", "not -phase control"}, true, nil},
		{"days with alerts", []string{"-phase", "alerts", "-days", "3"},
			[]string{"-days only applies to the normal phase, -tents and -phase econ, not -phase alerts"}, true, nil},
		{"id outside normal", []string{"-id", "fig3", "-phase", "chaos"},
			[]string{"-id only applies to the normal phase, not -phase chaos"}, true, nil},
		{"removed phase", []string{"-phase", "prototype"}, []string{`unknown -phase "prototype"`}, true, nil},
		{"bad flag", []string{"-no-such-flag"}, []string{"no-such-flag"}, true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out string
			var err error
			if tc.call != nil {
				var b strings.Builder
				err = tc.call(context.Background(), &b)
				out = b.String()
			} else {
				out, err = runOut(t, tc.args...)
			}
			got := out
			if tc.wantErr {
				if err == nil {
					t.Fatalf("run(%q) succeeded", tc.args)
				}
				got = err.Error()
			} else if err != nil {
				t.Fatalf("run(%q): %v", tc.args, err)
			}
			for _, w := range tc.want {
				if !strings.Contains(got, w) {
					t.Errorf("run(%q): %q not in\n%s", tc.args, w, got)
				}
			}
		})
	}
}

// TestSaveLoadRendersIdentically: a -save/-load round trip renders the
// catalogue the run printed.
func TestSaveLoadRendersIdentically(t *testing.T) {
	saved := filepath.Join(t.TempDir(), "run.json")
	ran, err := runOut(t, "-days", "2", "-monitor", "0", "-save", saved)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := runOut(t, "-load", saved)
	if err != nil {
		t.Fatal(err)
	}
	_, ranCat, _ := strings.Cut(ran, "\n\n")
	ranCat, ok := strings.CutSuffix(ranCat, "Results saved to "+saved+"\n")
	if !ok {
		t.Fatalf("-save did not report the archive:\n%s", ran)
	}
	header, loadedCat, _ := strings.Cut(loaded, "\n\n")
	if want := "Rendering saved run " + saved + ` (seed "winter0910-r115", Feb 19 – Feb 21)`; header != want {
		t.Errorf("-load header %q, want %q", header, want)
	}
	// The CPU figure comes from the live run only (report.Artefact.Render).
	cpu, err := runOut(t, "-days", "2", "-monitor", "0", "-id", "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Replace(ranCat, cpu, "", 1); loadedCat != want {
		t.Errorf("-load rendered\n%s\nwant\n%s", loadedCat, want)
	}
}

// TestIDMatchesFullOutput: for every catalogue artefact, -id X prints
// exactly X's block of the full output at the same seed and -monitor, and
// the blocks in catalogue order make up the whole of it.
func TestIDMatchesFullOutput(t *testing.T) {
	args := []string{"-days", "3", "-monitor", "20m"}
	full, err := runOut(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	header, rest, ok := strings.Cut(full, "\n\n")
	if !ok || !strings.HasPrefix(header, "Running normal phase") {
		t.Fatalf("full output starts %q", header)
	}
	for _, a := range report.Catalogue {
		block, err := runOut(t, append(args, "-id", a.ID)...)
		if err != nil {
			t.Fatalf("-id %s: %v", a.ID, err)
		}
		if !strings.HasPrefix(rest, block) {
			t.Fatalf("-id %s printed\n%s\nwhich is not the next block of the full output:\n%s", a.ID, block, rest)
		}
		rest = rest[len(block):]
	}
	if rest != "" {
		t.Errorf("full output has %q after the last artefact", rest)
	}
}

func TestUnknownIDRejected(t *testing.T) {
	out, err := runOut(t, "-id", "fig9")
	if err == nil || !strings.Contains(err.Error(), `unknown artefact id "fig9"`) {
		t.Fatalf("run(-id fig9) = %v", err)
	}
	if out != "" {
		t.Errorf("unknown id printed %q", out)
	}
}

// TestRunlessIDsRender: artefacts that need no run render without one,
// and ids are case-insensitive.
func TestRunlessIDsRender(t *testing.T) {
	for _, id := range []string{"fig1", "PUE"} {
		out, err := runOut(t, "-id", id)
		if err != nil {
			t.Fatalf("-id %s: %v", id, err)
		}
		if out == "" || strings.Contains(out, "Running normal phase") {
			t.Errorf("-id %s printed %q", id, out)
		}
	}
}

// TestRunStopsOnCancel: a cancelled context (main's signal context)
// stops the normal phase, the scale fleet and every study with its
// error.
func TestRunStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-days", "2", "-monitor", "0"},
		{"-tents", "2", "-days", "1"},
		{"-phase", "control"},
		{"-phase", "alerts"},
		{"-phase", "chaos"},
		{"-phase", "econ"},
		{"-phase", "serve"},
	} {
		if err := run(ctx, args, io.Discard); !errors.Is(err, context.Canceled) {
			t.Errorf("run(%q) with a cancelled context = %v", args, err)
		}
	}
}

// TestErrorsReportedOnce: a bad flag reaches stderr once, from the FlagSet
// with its usage, and not again from main; a run error reaches it once,
// from main; -h prints the usage and exits 0.
func TestErrorsReportedOnce(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // in stderr exactly once
	}{
		{[]string{"-bogus"}, 1, "flag provided but not defined: -bogus"},
		{[]string{"-bogus"}, 1, "Usage of frostctl:"},
		{[]string{"-days", "-1"}, 1, "frostctl: -days must not be negative, got -1\n"},
		{[]string{"-h"}, 0, "Usage of frostctl:"},
	} {
		stderr := captureStderr(t, func() {
			if code := exitCode(run(context.Background(), tc.args, io.Discard)); code != tc.code {
				t.Errorf("%q: exit status %d, want %d", tc.args, code, tc.code)
			}
		})
		if n := strings.Count(stderr, tc.want); n != 1 {
			t.Errorf("%q: %q on stderr %d times, want once:\n%s", tc.args, tc.want, n, stderr)
		}
	}
}

// captureStderr returns what f writes to os.Stderr.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	file, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	saved := os.Stderr
	os.Stderr = file
	defer func() { os.Stderr = saved }()
	f()
	data, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
