package main

import (
	"context"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
)

// runOut calls run in-process and returns what it printed.
func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(context.Background(), args, &out)
	return out.String(), err
}

// TestRunResumesFromCheckpoints runs a toy campaign twice into one
// checkpoint directory: the second run restores every replicate and
// prints the same report.
func TestRunResumesFromCheckpoints(t *testing.T) {
	args := []string{"-reps", "2", "-days", "2", "-workers", "2", "-checkpoint", t.TempDir()}
	first, err := runOut(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := runOut(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ out, want string }{
		{first, "2 runs (2 completed, 0 failed, 0 from checkpoints)"},
		{second, "2 runs (2 completed, 0 failed, 2 from checkpoints)"},
	} {
		if !strings.Contains(tc.out, tc.want) {
			t.Errorf("%q not in\n%s", tc.want, tc.out)
		}
	}
	// Past the header and the timing line, only the checkpoint count differs.
	report := func(s string) string {
		_, r, _ := strings.Cut(s, "\n\n")
		return strings.Replace(r, "0 from checkpoints", "2 from checkpoints", 1)
	}
	if report(first) != report(second) {
		t.Errorf("resumed report differs:\n%s\nvs\n%s", report(first), report(second))
	}
}

func TestRunRejectsBadSweep(t *testing.T) {
	for _, args := range [][]string{
		{"-fleets", "0"},
		{"-mods", "banana"},
		{"-monitors", "garbage"},
	} {
		out, err := runOut(t, append(args, "-checkpoint", "")...)
		if err == nil {
			t.Errorf("run(%q) succeeded:\n%s", args, out)
		}
	}
}

// TestDebugAddrBusy: an address that cannot be listened on fails the
// run before any replicate starts.
func TestDebugAddrBusy(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out, err := runOut(t, "-reps", "1", "-days", "1", "-checkpoint", "", "-debug-addr", ln.Addr().String())
	if err == nil || !strings.Contains(err.Error(), "debug listener") {
		t.Fatalf("run with a busy -debug-addr = %v", err)
	}
	if out != "" {
		t.Errorf("failed run printed %q", out)
	}
}

// TestDebugListenerStops: the debug server is gone when run returns —
// its port refuses connections and no goroutine is left behind.
func TestDebugListenerStops(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	before := runtime.NumGoroutine()
	out, err := runOut(t, "-reps", "2", "-days", "1", "-workers", "2", "-checkpoint", "", "-debug-addr", addr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "telemetry + pprof on http://"+addr+"/") {
		t.Errorf("no debug banner in\n%s", out)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Errorf("debug listener %s still accepts connections after run", addr)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after run, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
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
		{[]string{"-bogus"}, 1, "Usage of campaign:"},
		{[]string{"-fleets", "0"}, 1, "campaign: bad fleet size \"0\""},
		{[]string{"-h"}, 0, "Usage of campaign:"},
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
