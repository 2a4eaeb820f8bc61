package main

import (
	"context"
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"frostlab/internal/monitor"
	"frostlab/internal/wire"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDumpMirrorReplacesAtomically: a mirror dump replaces each file
// whole and leaves no temporary behind; a dump that cannot write leaves
// the previous mirror as it was.
func TestDumpMirrorReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	coll := monitor.NewCollector(64)
	m := coll.Mirror("01")
	m.Put(monitor.SensorLog, []byte("round 1\n"))
	m.Put(monitor.MD5Log, []byte("md5 1\n"))
	if err := dumpMirror(coll, "01", dir); err != nil {
		t.Fatal(err)
	}
	sensor := filepath.Join(dir, "01", monitor.SensorLog)
	md5log := filepath.Join(dir, "01", monitor.MD5Log)

	m.Put(monitor.SensorLog, []byte("round 1\nround 2\n"))
	m.Put(monitor.MD5Log, []byte("md5 1\nmd5 2\n"))
	// A directory where the temporary file goes makes the write fail.
	if err := os.Mkdir(md5log+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := dumpMirror(coll, "01", dir); err == nil {
		t.Fatal("dump with an unwritable temporary succeeded")
	}
	if got := readFile(t, md5log); got != "md5 1\n" {
		t.Errorf("failed dump changed %s to %q", monitor.MD5Log, got)
	}

	if err := os.Remove(md5log + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := dumpMirror(coll, "01", dir); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, sensor); got != "round 1\nround 2\n" {
		t.Errorf("%s = %q after the second dump", monitor.SensorLog, got)
	}
	if got := readFile(t, md5log); got != "md5 1\nmd5 2\n" {
		t.Errorf("%s = %q after the second dump", monitor.MD5Log, got)
	}
	left, err := filepath.Glob(filepath.Join(dir, "01", "*.tmp"))
	if err != nil || len(left) != 0 {
		t.Errorf("temporaries left behind: %v %v", left, err)
	}
}

// TestWriteFileAtomicTornWrite: a write that fails halfway leaves the
// previous file intact and removes the partial temporary.
func TestWriteFileAtomicTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mirror.log")
	if err := os.WriteFile(path, []byte("previous\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := writeFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the ne"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want %v", err, boom)
	}
	if got := readFile(t, path); got != "previous\n" {
		t.Errorf("torn write changed the file to %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("partial temporary left behind: %v", err)
	}
}

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

// serveAgent serves an agent for host 01, whose store holds an md5 line
// and cycle_ms samples, behind wire.Accept on a loopback port, and
// returns its address.
func serveAgent(t *testing.T) (string, *monitor.FileStore) {
	t.Helper()
	store := monitor.NewFileStore()
	now := time.Now().UTC()
	store.Append(monitor.MD5Log, []byte(now.Format(time.RFC3339)+" OK d41d8cd98f00b204e9800998ecf8427e\n"))
	for i := 3; i >= 0; i-- {
		at := now.Add(-time.Duration(i) * time.Minute).Format(time.RFC3339)
		store.Append(monitor.SensorLog, []byte(fmt.Sprintf("%s cycle_ms=%d.5 ok=1\n", at, 10+i)))
	}
	agent := monitor.NewAgent("01", store)
	keys := wire.Keystore{"01": wire.DerivePSK("winter0910", "01")}
	nonce := func() ([]byte, error) {
		b := make([]byte, wire.NonceSize)
		_, err := rand.Read(b)
		return b, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				if sess, err := wire.Accept(conn, keys, nonce); err == nil {
					agent.Serve(sess)
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String(), store
}

// TestCollectordServesPlane runs the daemon against one agent and checks
// its dashboard, its debug listener and, after a cancel as SIGTERM
// sends, its mirror dump and sample checkpoint; a restart restores the
// checkpoint.
func TestCollectordServesPlane(t *testing.T) {
	agentAddr, store := serveAgent(t)
	mirrorDir, tsdbDir := t.TempDir(), t.TempDir()
	args := []string{"-hosts", "01=" + agentAddr, "-every", "20ms",
		"-http", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-mirror-retain", "65536", "-tsdb-dir", tsdbDir, "-dir", mirrorDir}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, out) }()

	addr := func(name string) string {
		var a string
		waitFor(t, name+"'s address", func() bool {
			_, rest, ok := strings.Cut(out.String(), name+" on http://")
			a, _, _ = strings.Cut(rest, "/")
			return ok
		})
		return "http://" + a
	}
	dashURL, debugURL := addr("status dashboard"), addr("telemetry + pprof")
	waitFor(t, "/healthz", func() bool {
		resp, err := http.Get(dashURL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	waitFor(t, "the cycle_ms series", func() bool {
		return strings.Contains(get(t, dashURL+"/api/series"), `"01/cycle_ms"`)
	})

	metrics := get(t, dashURL+"/metrics")
	for _, family := range []string{
		`frostlab_fleet_breaker_state{host="01"}`,
		"frostlab_fleet_round_duration_seconds_bucket",
		"frostlab_fleet_coverage_ratio",
		"frostlab_mirror_bytes",
		"frostlab_tsdb_samples",
		"frostlab_rules_evals_total",
		"frostlab_alerts_firing",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics has no %s", family)
		}
	}
	for path, want := range map[string]string{
		"/api/alerts":                `"firing"`,
		"/api/rules":                 "sensor_stale",
		"/api/incidents":             `"timeline"`,
		"/api/series/01/cycle_ms":    `"value"`,
		"/logs/01/" + monitor.MD5Log: " OK ",
	} {
		if body := get(t, dashURL+path); !strings.Contains(body, want) {
			t.Errorf("%s has no %s:\n%s", path, want, body)
		}
	}
	if body := get(t, debugURL+"/metrics"); !strings.Contains(body, "frostlab_fleet_rounds_total") {
		t.Errorf("debug /metrics has no frostlab_fleet_rounds_total:\n%s", body)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "drained and flushed") {
		t.Errorf("no shutdown line in\n%s", out.String())
	}
	if st, err := os.Stat(filepath.Join(tsdbDir, segmentName)); err != nil || st.Size() == 0 {
		t.Errorf("checkpoint after shutdown: %v, %v", st, err)
	}
	for _, name := range []string{monitor.MD5Log, monitor.SensorLog} {
		want := string(store.Get(name))
		if got := readFile(t, filepath.Join(mirrorDir, "01", name)); got != want {
			t.Errorf("mirror dump of %s = %q, want %q", name, got, want)
		}
	}

	// A restart restores the checkpoint before its first round.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	out = &syncBuffer{}
	go func() {
		done <- run(ctx, []string{"-hosts", "01=" + agentAddr, "-every", "1h", "-tsdb-dir", tsdbDir}, out)
	}()
	waitFor(t, "the restart's first round", func() bool { return strings.Contains(out.String(), "round 1 complete") })
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "restored sample checkpoint: ") {
		t.Errorf("restart did not restore the checkpoint:\n%s", out.String())
	}
}

// TestRunRejects: a bad flag or an address that cannot be bound is
// run's error, before the first round.
func TestRunRejects(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	hosts := []string{"-hosts", "01=127.0.0.1:1"}
	for _, tc := range []struct {
		name  string
		args  []string
		want  string
		parse bool // the FlagSet reports it
	}{
		{"no hosts", nil, "-hosts is required", false},
		{"bad hosts", []string{"-hosts", "01"}, "bad -hosts entry", false},
		{"zero cadence", append([]string{"-every", "0"}, hosts...), "-every must be positive", false},
		{"negative cadence", append([]string{"-every", "-1m"}, hosts...), "-every must be positive", false},
		{"missing rules", append([]string{"-rules", filepath.Join(t.TempDir(), "none")}, hosts...), "-rules", false},
		{"busy http", append([]string{"-http", busy.Addr().String()}, hosts...), "status dashboard", false},
		{"busy debug", append([]string{"-debug-addr", busy.Addr().String()}, hosts...), "telemetry + pprof", false},
		{"unknown flag", append([]string{"-rounds", "1"}, hosts...), "flag provided but not defined", true},
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
			if strings.Contains(out.String(), "round 1") {
				t.Errorf("failed run collected:\n%s", out.String())
			}
		})
	}
}
