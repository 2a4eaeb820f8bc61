package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"frostlab/internal/monitor"
	"frostlab/internal/wire"
)

// syncBuffer collects what run prints while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// startAgent runs the agent on its own goroutine. It returns the agent's
// collection address, its debug address and stop, which cancels the agent
// as SIGTERM does and returns run's error and how long run took to return.
func startAgent(t *testing.T) (listen, debug string, stop func() (error, time.Duration)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-id", "01", "-listen", "127.0.0.1:0", "-cycle", "20ms", "-debug-addr", "127.0.0.1:0"}, out)
	}()
	var stopped bool
	var runErr error
	var took time.Duration
	stop = func() (error, time.Duration) {
		if !stopped {
			stopped = true
			start := time.Now()
			cancel()
			runErr = <-done
			took = time.Since(start)
		}
		return runErr, took
	}
	t.Cleanup(func() { stop() })
	waitFor(t, "the agent's banner", func() bool { return strings.Contains(out.String(), "listening on ") })
	text := out.String()
	_, rest, _ := strings.Cut(text, "telemetry + pprof on http://")
	debug, _, _ = strings.Cut(rest, "/")
	_, rest, _ = strings.Cut(text, "listening on ")
	listen, _, _ = strings.Cut(rest, "\n")
	waitFor(t, "/healthz", func() bool {
		resp, err := http.Get("http://" + debug + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return listen, debug, stop
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}

// pooledCollector collects host 01 at addr over TCP, keeping its session
// alive between rounds.
func pooledCollector(t *testing.T, addr string) *monitor.FleetCollector {
	t.Helper()
	var d net.Dialer
	fc, err := monitor.NewFleetCollector(monitor.NewCollector(0), monitor.FleetConfig{
		Hosts: []string{"01"},
		Dial: func(ctx context.Context, _ string, _, _ int) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		},
		KeyFor:       func(id string) ([]byte, error) { return wire.DerivePSK("winter0910", id), nil },
		PhaseTimeout: 5 * time.Second,
		Pool:         &monitor.PoolConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fc.Close)
	return fc
}

// TestAgentServesCollectionsAndTelemetry: the agent runs its workload,
// serves a pooled collector over TCP, and serves its telemetry on the
// debug listener.
func TestAgentServesCollectionsAndTelemetry(t *testing.T) {
	listen, debug, stop := startAgent(t)
	if body := get(t, "http://"+debug+"/buildinfo"); !strings.Contains(body, "go_version") {
		t.Errorf("/buildinfo has no go_version:\n%s", body)
	}
	waitFor(t, "a workload cycle", func() bool {
		body := get(t, "http://"+debug+"/metrics")
		return strings.Contains(body, "frostlab_agent_cycles_total ") &&
			!strings.Contains(body, "frostlab_agent_cycles_total 0\n")
	})

	fc := pooledCollector(t, listen)
	for round := 1; round <= 2; round++ {
		rep := fc.Round(context.Background(), time.Now())
		if h := rep.Hosts[0]; h.Status != monitor.StatusOK {
			t.Fatalf("round %d: %s after %d attempts: %s", round, h.Status, h.Attempts, h.Err)
		}
	}
	if n := fc.PooledSessions(); n != 1 {
		t.Errorf("%d sessions parked after two rounds, want 1", n)
	}
	md5log := string(fc.Collector().Mirror("01").Get(monitor.MD5Log))
	if !strings.Contains(md5log, " OK ") {
		t.Errorf("mirrored %s has no OK cycle:\n%s", monitor.MD5Log, md5log)
	}
	sensor := string(fc.Collector().Mirror("01").Get(monitor.SensorLog))
	if !strings.Contains(sensor, "cycle_ms=") {
		t.Errorf("mirrored %s has no cycle_ms sample:\n%s", monitor.SensorLog, sensor)
	}
	if body := get(t, "http://"+debug+"/metrics"); !strings.Contains(body, "frostlab_agent_inflight_collections 1") {
		t.Errorf("parked session not in flight:\n%s", body)
	}
	if err, _ := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownEndsParkedKeepalive: a pooled session parked between
// rounds does not hold the shutdown for the drain timeout, and the agent
// serves no collection after it.
func TestShutdownEndsParkedKeepalive(t *testing.T) {
	listen, _, stop := startAgent(t)
	fc := pooledCollector(t, listen)
	if h := fc.Round(context.Background(), time.Now()).Hosts[0]; h.Status != monitor.StatusOK {
		t.Fatalf("collection %s: %s", h.Status, h.Err)
	}
	if fc.PooledSessions() != 1 {
		t.Fatal("no session parked")
	}
	err, took := stop()
	if err != nil {
		t.Fatal(err)
	}
	if took > 2*time.Second {
		t.Errorf("run took %v to return with a parked keepalive", took)
	}
	if h := fc.Round(context.Background(), time.Now()).Hosts[0]; h.Status == monitor.StatusOK {
		t.Error("the parked session was still served after shutdown")
	}
}

// TestRunRejects: a bad flag or an address that cannot be bound is
// run's error, before the first cycle.
func TestRunRejects(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, tc := range []struct {
		name  string
		args  []string
		want  string
		parse bool // the FlagSet reports it
	}{
		{"no id", nil, "-id is required", false},
		{"zero cycle", []string{"-id", "01", "-cycle", "0"}, "-cycle must be positive", false},
		{"negative cycle", []string{"-id", "01", "-cycle", "-1s"}, "-cycle must be positive", false},
		{"busy listen", []string{"-id", "01", "-listen", busy.Addr().String()}, "address already in use", false},
		{"busy debug", []string{"-id", "01", "-listen", "127.0.0.1:0", "-debug-addr", busy.Addr().String()}, "debug listener", false},
		{"unknown flag", []string{"-max-sessions", "8"}, "flag provided but not defined", true},
		{"help", []string{"-h"}, flag.ErrHelp.Error(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var out syncBuffer
			err := run(ctx, tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
			if errors.As(err, new(flagError)) != tc.parse {
				t.Errorf("run(%q) = %v: flagError only for parse errors", tc.args, err)
			}
			if strings.Contains(out.String(), "listening on") {
				t.Errorf("failed run started serving:\n%s", out.String())
			}
		})
	}
}
