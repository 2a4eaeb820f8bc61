package core

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"runtime"
	"testing"
)

// referenceResultsMD5 anchors the serialized reference-seed Results. The
// ISSUE-7 text quotes the PR 2-era hash 578a2dd6…, which later planes
// (lascar cleaning, monitoring ledger, SMART tallies) have since extended;
// this is the current anchor, and the sharded engine plus every tested
// GOMAXPROCS must reproduce it byte for byte.
const referenceResultsMD5 = "8e0826989f4f48725cd63e85be20a0da"

// referenceConfig is the anchored recipe: the reference seed with the
// monitoring plane off (the scale engine's comparison base).
func referenceConfig() Config {
	cfg := DefaultConfig(ReferenceSeed)
	cfg.MonitorEvery = 0
	return cfg
}

func serializedRunMD5(t *testing.T, cfg Config) string {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveResults(&buf, r); err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestReferenceResultsHashAcrossGOMAXPROCS pins the reference-seed run to
// its anchored md5 at GOMAXPROCS 1, 2 and 8. The engine's only
// concurrency is the pack-ahead goroutine, which packs source trees while
// the single event loop runs; this both guards the anchor and proves that
// neither scheduler parallelism nor which goroutine packed a tree can
// perturb it.
func TestReferenceResultsHashAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference run")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if got := serializedRunMD5(t, referenceConfig()); got != referenceResultsMD5 {
			t.Fatalf("GOMAXPROCS=%d: serialized results md5 %s, want %s", procs, got, referenceResultsMD5)
		}
	}
}
