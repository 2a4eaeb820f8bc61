package loadgen

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: "sched-det", Agents: 8, SustainRate: 300,
		Warmup: 50 * time.Millisecond, Ramp: 50 * time.Millisecond,
		Sustain: 200 * time.Millisecond, Spike: 100 * time.Millisecond}
	a, b := cfg.Schedule(), cfg.Schedule()
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d diverges: %+v vs %+v", i, a[i], b[i])
		}
	}
	other := cfg
	other.Seed = "sched-other"
	o := other.Schedule()
	same := len(o) == len(a)
	if same {
		for i := range a {
			if a[i] != o[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}

	// Shape checks: monotone times, all phases present, spike densest.
	var perPhase [NumPhases]int
	last := time.Duration(-1)
	for _, ar := range a {
		if ar.At <= last {
			t.Fatalf("arrival times not strictly increasing at %v", ar.At)
		}
		last = ar.At
		perPhase[ar.Phase]++
		if ar.Path == "" || !strings.HasPrefix(ar.Path, "/") {
			t.Fatalf("bad path %q", ar.Path)
		}
	}
	for p := Warmup; p <= Spike; p++ {
		if perPhase[p] == 0 {
			t.Errorf("phase %s drew no arrivals", p)
		}
	}
	// Spike runs at 5× sustain over half the duration ⇒ ~2.5× arrivals.
	if perPhase[Spike] < perPhase[Sustain] {
		t.Errorf("spike (%d arrivals) not denser than sustain (%d)", perPhase[Spike], perPhase[Sustain])
	}
}

// TestServingPlaneSurvivesSpike is the graceful-degradation test the
// issue demands, scaled to CI: a small fleet, a tiny admission
// watermark, and a spike far past it. The plane must shed (rejections
// and drops are expected and counted), stay live (healthz never fails),
// account for every request, and leak nothing.
func TestServingPlaneSurvivesSpike(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Seed:          "spike-test",
		Agents:        12,
		Scrapers:      4,
		SustainRate:   2000, // spike = 10k rps against µs-fast handlers
		MaxInflight:   1,    // force the admission gate to engage
		PendingBuffer: 8,    // and let feed-point drops engage too
		Warmup:        100 * time.Millisecond,
		Ramp:          100 * time.Millisecond,
		Sustain:       400 * time.Millisecond,
		Spike:         300 * time.Millisecond,
		RoundEvery:    50 * time.Millisecond,
		PStaleConn:    0.2,
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Healthz.Probes == 0 {
		t.Fatal("no healthz probes ran")
	}
	if rep.Healthz.Failures != 0 {
		t.Errorf("healthz failed %d/%d probes under load", rep.Healthz.Failures, rep.Healthz.Probes)
	}
	if got := rep.Unaccounted(); got != 0 {
		t.Errorf("unaccounted requests = %d, want 0", got)
	}
	var totalArrivals, totalOK uint64
	for _, p := range rep.Phases {
		totalArrivals += p.Arrivals
		totalOK += p.OK
	}
	if totalArrivals == 0 || totalOK == 0 {
		t.Fatalf("degenerate run: %d arrivals, %d ok", totalArrivals, totalOK)
	}
	// With watermark 1 under a 10k rps spike and a 4-worker scraper
	// fleet behind an 8-deep feed, load must visibly shed somewhere —
	// the gate, the feed point, or both.
	spike := rep.PhaseByName("spike")
	if spike == nil {
		t.Fatal("no spike phase in report")
	}
	var shed uint64
	for _, p := range rep.Phases {
		shed += p.Rejected + p.Dropped
	}
	if shed == 0 {
		t.Error("run shed nothing despite a watermark of 1 at 10k rps")
	}

	// The keepalive pool carried the collection plane: later rounds
	// reused sessions instead of redialling the fleet.
	if rep.Pool.Hits == 0 {
		t.Error("pool recorded no hits across rounds")
	}
	if rep.Pool.Stale == 0 {
		t.Error("PStaleConn=0.2 injected no stale conns")
	}
	if rep.RoundsPlane.Rounds == 0 || rep.RoundsPlane.OK == 0 {
		t.Errorf("collection plane degenerate: %+v", rep.RoundsPlane)
	}
	// Rounds may fail only by cancellation, never by overload: the
	// serving plane and collection plane are isolated by design.
	if rep.RoundsPlane.Failed > 0 {
		t.Errorf("%d host-rounds failed under scrape load", rep.RoundsPlane.Failed)
	}

	// Every ingest job is accounted: offered = shed + done + failed.
	ing := rep.Ingest
	if ing.Offered == 0 {
		t.Fatal("no ingestion jobs offered")
	}
	if ing.Offered != ing.Shed+ing.Done+ing.Failed {
		t.Errorf("ingest accounting broken: %+v", ing)
	}

	// Bounded memory and no goroutine leaks.
	if rep.MirrorBytes <= 0 || rep.MirrorBytes > 12*(64<<10)*4 {
		t.Errorf("mirror bytes = %d, want bounded by retention", rep.MirrorBytes)
	}
	if rep.Goroutines.After > rep.Goroutines.Before+8 {
		t.Errorf("goroutines %d -> %d: leak", rep.Goroutines.Before, rep.Goroutines.After)
	}
}

// TestRunRespectsContext proves a cancelled run exits promptly instead
// of walking the rest of the schedule.
func TestRunRespectsContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, Config{
		Seed: "ctx-test", Agents: 4, Scrapers: 2, SustainRate: 50,
		Warmup: 5 * time.Second, Ramp: 5 * time.Second,
		Sustain: 5 * time.Second, Spike: 5 * time.Second,
	})
	if err == nil {
		t.Error("cancelled run returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v", elapsed)
	}
}

// TestRunRejectsBadStaleProbability: a negative or NaN PStaleConn is an
// error from the chaos plane, not a silent run without chaos.
func TestRunRejectsBadStaleProbability(t *testing.T) {
	for _, p := range []float64{-1, math.NaN()} {
		if _, err := Run(context.Background(), Config{Seed: "bad-stale", Agents: 2, PStaleConn: p}); err == nil {
			t.Errorf("PStaleConn %v accepted", p)
		}
	}
}
