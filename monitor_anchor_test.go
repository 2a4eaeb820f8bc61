package frostlab_test

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"testing"
	"time"

	"frostlab/internal/core"
	"frostlab/internal/rules"
)

// TestMonitoredAnchor14Days pins the paper-length monitored anchor pair
// listed in bench/README.md: the reference seed over 14 days with the
// paper's 20-minute rsync rounds and the default alert rules. The monitor
// plane moves every mirrored log byte into the SaveResults archive (as
// literal and total byte counts) and into the rules engine (through the
// sample plane), so any change to how rounds sync files that alters a
// byte of either shows up here.
func TestMonitoredAnchor14Days(t *testing.T) {
	if testing.Short() {
		t.Skip("14-day monitored run")
	}
	cfg := core.DefaultConfig(core.ReferenceSeed)
	cfg.End = cfg.Start.AddDate(0, 0, 14)
	cfg.MonitorEvery = 20 * time.Minute
	cfg.Rules = rules.Default()
	exp, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.SaveResults(&buf, r); err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum(buf.Bytes())
	if got, want := hex.EncodeToString(sum[:]), "5966bbd2acab4ad44e2737feba05f8d6"; got != want {
		t.Errorf("SaveResults md5 = %s, want %s", got, want)
	}
	if r.Alerts == nil {
		t.Fatal("monitored run has no alert report")
	}
	if got, want := r.Alerts.Digest, "4591b46b6f2ef4e4f80385c9fe83c04a537a58331be148109bafd3066c0e7c6e"; got != want {
		t.Errorf("alert timeline digest = %s, want %s", got, want)
	}
}
