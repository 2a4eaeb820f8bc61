package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"frostlab/internal/weather"
)

// TestRunWritesReadableTrace: a one-day trace written with -o reads back
// through weather.ReadTraceCSV over the requested span.
func TestRunWritesReadableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wx.csv")
	var out strings.Builder
	if err := run(context.Background(), []string{"-days", "1", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("-o run printed %q", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := weather.ReadTraceCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	from, to := tr.Span()
	wantFrom := time.Date(2010, time.February, 12, 0, 0, 0, 0, time.UTC)
	if !from.Equal(wantFrom) || !to.Equal(wantFrom.AddDate(0, 0, 1)) {
		t.Errorf("trace spans %v – %v, want the day from %v", from, to, wantFrom)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-days", "0"},
		{"-from", "12/02/2010"},
		{"-climate", "atlantis"},
		{"-days", "1", "-o", filepath.Join(dir, "missing", "wx.csv")},
	} {
		if err := run(context.Background(), args, &strings.Builder{}); err == nil {
			t.Errorf("run(%q) succeeded", args)
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
		{[]string{"-bogus"}, 1, "Usage of weathergen:"},
		{[]string{"-days", "0"}, 1, "weathergen: -days must be positive\n"},
		{[]string{"-h"}, 0, "Usage of weathergen:"},
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
