package main

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of stdout, or of the error when wantErr
		// wantErr marks a row that must fail.
		wantErr bool
	}{
		{[]string{"-days", "1", "-mods", "RIBF"}, `mean ΔT over 1 days at 1400 W with mods "RIBF"`, false},
		{[]string{"-days", "1", "-power", "NaN"}, "-power must be a finite, non-negative number", true},
		{[]string{"-days", "1", "-power", "+Inf"}, "-power must be a finite, non-negative number", true},
		{[]string{"-days", "1", "-power", "-1"}, "-power must be a finite, non-negative number", true},
		{[]string{"-days", "1", "-power", "1e308"}, "overflows", true},
		{[]string{"-days", "0"}, "-days must be positive", true},
		{[]string{"-days", "1", "-mods", "RX"}, `unknown modification "X"`, true},
	} {
		var out strings.Builder
		err := run(context.Background(), tc.args, &out)
		got := out.String()
		if tc.wantErr {
			if err == nil {
				t.Errorf("run(%q) succeeded:\n%s", tc.args, got)
				continue
			}
			got = err.Error()
		} else if err != nil {
			t.Errorf("run(%q): %v", tc.args, err)
			continue
		}
		if !strings.Contains(got, tc.want) {
			t.Errorf("run(%q): %q not in\n%s", tc.args, tc.want, got)
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
		{[]string{"-bogus"}, 1, "Usage of tentsim:"},
		{[]string{"-days", "0"}, 1, "tentsim: -days must be positive\n"},
		{[]string{"-h"}, 0, "Usage of tentsim:"},
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
