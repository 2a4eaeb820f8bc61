package main

import (
	"context"
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
