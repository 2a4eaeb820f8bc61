package chaos_test

import (
	"context"
	"math"
	"testing"
	"time"

	"frostlab/internal/chaos"
	"frostlab/internal/monitor"
)

func TestStaleConnDeterministic(t *testing.T) {
	spec := chaos.Spec{Seed: "stale-det", PStaleConn: 0.3}
	a, err := chaos.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Draw b in reverse to prove order independence; compare to a drawn
	// forward. Also count hits so the 0.3 rate is visibly non-degenerate.
	type key struct {
		host  string
		round int
	}
	bDraws := map[key]bool{}
	for r := 40; r >= 1; r-- {
		for _, h := range fleetIDs(4) {
			bDraws[key{h, r}] = b.StaleConn(h, r)
		}
	}
	hits := 0
	for r := 1; r <= 40; r++ {
		for _, h := range fleetIDs(4) {
			got := a.StaleConn(h, r)
			if got != bDraws[key{h, r}] {
				t.Fatalf("same-seed stale draws diverge at %s/r%d", h, r)
			}
			if got {
				hits++
			}
		}
	}
	if hits == 0 || hits == 160 {
		t.Errorf("stale draw looks degenerate: %d/160 hits at p=0.3", hits)
	}
}

func TestStaleConnZeroProbabilityNeverFires(t *testing.T) {
	inj, err := chaos.New(chaos.Spec{Seed: "stale-zero"})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 20; r++ {
		if inj.StaleConn("01", r) {
			t.Fatalf("PStaleConn=0 drew a stale conn at round %d", r)
		}
	}
}

func TestStaleConnValidation(t *testing.T) {
	if _, err := chaos.New(chaos.Spec{PStaleConn: 1.5}); err == nil {
		t.Error("PStaleConn > 1 accepted")
	}
	if _, err := chaos.New(chaos.Spec{PStaleConn: -0.1}); err == nil {
		t.Error("negative PStaleConn accepted")
	}
	if _, err := chaos.New(chaos.Spec{PStaleConn: math.NaN()}); err == nil {
		t.Error("NaN PStaleConn accepted")
	}
	// PStaleConn is its own channel: a full-rate stale-conn spec composes
	// with attempt probabilities summing to 1.
	if _, err := chaos.New(chaos.Spec{PRefuse: 0.5, PCut: 0.5, PStaleConn: 1}); err != nil {
		t.Errorf("PStaleConn wrongly summed with attempt probabilities: %v", err)
	}
}

// TestStaleConnAgainstPool wires Injector.StaleConn in as the pool fault
// hook — the production shape — and proves an injected stale keepalive
// costs a redial, never a failed host-round.
func TestStaleConnAgainstPool(t *testing.T) {
	ids := fleetIDs(3)
	agents, keys := buildAgents(ids)
	inj, err := chaos.New(chaos.Spec{Seed: "stale-pool", PStaleConn: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := monitor.NewFleetCollector(monitor.NewCollector(0), monitor.FleetConfig{
		Hosts:        ids,
		Dial:         monitor.InProcessDialer(agents, keys, "stale-pool"),
		KeyFor:       func(id string) ([]byte, error) { return keys[id], nil },
		NonceFor:     monitor.InProcessNonces("stale-pool"),
		Retry:        monitor.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second, Multiplier: 2},
		Breaker:      monitor.BreakerConfig{Trip: 2, Cooldown: 2},
		PhaseTimeout: 2 * time.Second,
		RoundTimeout: 30 * time.Second,
		Jitter:       monitor.DeterministicJitter("stale-pool"),
		Sleep:        noSleep,
		Pool:         &monitor.PoolConfig{Fault: inj.StaleConn},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	for round := 1; round <= 10; round++ {
		rep := fc.Round(context.Background(), t0)
		for _, h := range rep.Hosts {
			if h.Status != monitor.StatusOK || h.Attempts != 1 {
				t.Fatalf("round %d host %s = %+v, want ok on attempt 1", round, h.HostID, h)
			}
		}
	}
	// At p=0.5 over 3 hosts × 9 pooled rounds, every session should have
	// been parked again by round end.
	if got := fc.PooledSessions(); got != len(ids) {
		t.Errorf("pooled sessions after 10 rounds = %d, want %d", got, len(ids))
	}
}
