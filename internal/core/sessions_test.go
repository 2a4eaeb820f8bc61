package core

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"
	"time"

	"frostlab/internal/rules"
	"frostlab/internal/wire"
)

// monitoredConfig is the reference seed over days with the paper's
// 20-minute rounds and the default alert rules.
func monitoredConfig(days int) Config {
	cfg := DefaultConfig(ReferenceSeed)
	cfg.End = cfg.Start.AddDate(0, 0, days)
	cfg.MonitorEvery = 20 * time.Minute
	cfg.Rules = rules.Default()
	return cfg
}

// TestMonitorSessionsJoined checks that no goroutine outlives a monitored
// run, whether it completes, is cancelled between rounds, or fails
// mid-collection, that a failed run stops at its failure, and that keeping
// sessions across rounds leaves the 2-day monitored results byte-identical
// to dialling every round.
func TestMonitorSessionsJoined(t *testing.T) {
	base := runtime.NumGoroutine()

	e, err := New(monitoredConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, base, "completed run")
	var buf bytes.Buffer
	if err := SaveResults(&buf, r); err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum(buf.Bytes())
	if got, want := hex.EncodeToString(sum[:]), "1bb180762cf6b4a8ec5df52b39d93951"; got != want {
		t.Errorf("2-day monitored SaveResults md5 = %s, want %s", got, want)
	}
	if got, want := r.Alerts.Digest, "01ce1edad2083f017f24a62f6ec2ad62d5017bc7aa0d803b5456a2f4e0898d9c"; got != want {
		t.Errorf("2-day alert timeline digest = %s, want %s", got, want)
	}

	e, err = New(monitoredConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &pollCancelled{Context: context.Background()}
	if _, err := e.RunContext(ctx); err != context.Canceled {
		t.Fatalf("cancelled run: err %v, want context.Canceled", err)
	}
	if e.nonceCount == 0 {
		t.Fatal("cancelled run stopped before its first monitoring round")
	}
	checkGoroutines(t, base, "cancelled run")

	// Host 01's log outgrows a frame a few hours in: its agent cannot send
	// the delta, Serve fails and the run fails with it, with every other
	// host's session open. The run stops at the failing round: it neither
	// simulates on to its horizon nor dials another session.
	cfg := monitoredConfig(1)
	cfg.End = cfg.Start.Add(12 * time.Hour)
	e, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oversizedAt := cfg.Start.Add(6 * time.Hour)
	var dialled uint64
	if _, err := e.sched.At(oversizedAt, func(time.Time) {
		e.hosts[e.byID["01"]].store.Append("oversized.log", make([]byte, wire.MaxFrame+1))
		dialled = e.nonceCount
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("run with an oversized agent log: err %v, want wire.ErrTooLarge", err)
	}
	if now, limit := e.sched.Now(), oversizedAt.Add(cfg.MonitorEvery); now.After(limit) {
		t.Errorf("failed run stopped at %v, want by %v", now.Sub(cfg.Start), limit.Sub(cfg.Start))
	}
	if e.nonceCount != dialled {
		t.Errorf("failed run dialled %d sessions, %d when the log outgrew a frame", e.nonceCount, dialled)
	}
	checkGoroutines(t, base, "failed run")
}

// TestMonitorSessionRedials checks that a session lives until its host
// goes offline: over the reference run, the handshakes dialled equal the
// hosts collected (one first collection each) plus the hosts' returns
// from an outage (a repair or a relocation) before the horizon.
func TestMonitorSessionRedials(t *testing.T) {
	if testing.Short() {
		t.Skip("35-day monitored run")
	}
	cfg := DefaultConfig(ReferenceSeed)
	cfg.MonitorEvery = 20 * time.Minute
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var first, returns int
	for _, hg := range r.MonitorGaps {
		if hg.Collected > 0 {
			first++
		}
	}
	for _, ev := range r.Events {
		if (ev.Kind == EventRepair || ev.Kind == EventRelocation) && ev.At.Before(cfg.End) {
			returns++
		}
	}
	if returns == 0 {
		t.Fatal("no host came back from an outage; the test checks nothing")
	}
	if got, want := e.nonceCount, uint64(first+returns); got != want {
		t.Errorf("dialled %d sessions, want %d (%d first collections + %d returns)", got, want, first, returns)
	}
}
