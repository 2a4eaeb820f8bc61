package monitor

import (
	"testing"
	"time"
)

func TestBreakerTripAndRecover(t *testing.T) {
	b := NewBreaker(BreakerConfig{Trip: 2, Cooldown: 2})
	// Round 1: closed, fails.
	if allow, probe := b.Gate(); !allow || probe {
		t.Fatalf("round 1 gate = %v,%v, want allow, no probe", allow, probe)
	}
	b.OnFailure()
	if b.State() != BreakerClosed {
		t.Fatalf("one failure opened the breaker")
	}
	// Round 2: second consecutive failure trips it.
	b.Gate()
	b.OnFailure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after trip = %v, want open", b.State())
	}
	// Rounds 3 and 4: cooldown, no dial allowed.
	for round := 3; round <= 4; round++ {
		if allow, _ := b.Gate(); allow {
			t.Fatalf("round %d allowed during cooldown", round)
		}
	}
	// Round 5: half-open probe.
	allow, probe := b.Gate()
	if !allow || !probe {
		t.Fatalf("round 5 gate = %v,%v, want probe", allow, probe)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state during probe = %v", b.State())
	}
	// Failed probe re-opens with a fresh cooldown.
	b.OnFailure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if allow, _ := b.Gate(); allow {
		t.Fatal("round after failed probe allowed")
	}
	b.Gate() // second cooldown round
	// Probe again; success closes.
	if allow, probe := b.Gate(); !allow || !probe {
		t.Fatalf("expected second probe, got %v,%v", allow, probe)
	}
	b.OnSuccess()
	if b.State() != BreakerClosed || b.fails != 0 {
		t.Fatalf("state after successful probe = %v (%d fails), want closed/0",
			b.State(), b.fails)
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	for i := 0; i < 10; i++ {
		if allow, probe := b.Gate(); !allow || probe {
			t.Fatalf("disabled breaker gated round %d", i+1)
		}
		b.OnFailure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("disabled breaker state = %v", b.State())
	}
}

func TestRetryBackoffGrowthAndCap(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Second, Multiplier: 2, MaxBackoff: 3 * time.Second}
	got := []time.Duration{rp.Backoff(1, 0.5), rp.Backoff(2, 0.5), rp.Backoff(3, 0.5), rp.Backoff(4, 0.5)}
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 3 * time.Second}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("backoff after %d failures = %v, want %v", i+1, got[i], want[i])
		}
	}
	if rp.Backoff(0, 0.5) != 0 {
		t.Error("backoff before any failure should be zero")
	}
}

func TestRetryBackoffJitterBounds(t *testing.T) {
	rp := RetryPolicy{BaseBackoff: time.Second, JitterFrac: 0.5}
	lo, hi := rp.Backoff(1, 0), rp.Backoff(1, 0.999999)
	if lo < 750*time.Millisecond-time.Millisecond || hi > 1250*time.Millisecond+time.Millisecond {
		t.Errorf("jitter bounds [%v, %v] outside ±25%%", lo, hi)
	}
	if lo >= hi {
		t.Errorf("jitter not monotone in u: %v >= %v", lo, hi)
	}
}

func TestDeterministicJitterStable(t *testing.T) {
	j1 := DeterministicJitter("seed-a")
	j2 := DeterministicJitter("seed-a")
	j3 := DeterministicJitter("seed-b")
	same, diff := 0, 0
	for round := 1; round <= 8; round++ {
		for attempt := 1; attempt <= 3; attempt++ {
			a, b, c := j1("05", round, attempt), j2("05", round, attempt), j3("05", round, attempt)
			if a < 0 || a >= 1 {
				t.Fatalf("jitter %v outside [0,1)", a)
			}
			if a == b {
				same++
			}
			if a != c {
				diff++
			}
		}
	}
	if same != 24 {
		t.Errorf("same-seed jitter diverged: %d/24 equal", same)
	}
	if diff == 0 {
		t.Error("different seeds produced identical jitter everywhere")
	}
}

func TestGapLedgerAccounting(t *testing.T) {
	g := NewGapLedger()
	rec := func(round int, statuses map[string]HostStatus) {
		rep := RoundReport{Round: round}
		for _, id := range []string{"01", "02", "03"} {
			st, ok := statuses[id]
			if !ok {
				continue
			}
			rep.Hosts = append(rep.Hosts, HostOutcome{HostID: id, Status: st})
		}
		g.Record(rep)
	}
	rec(1, map[string]HostStatus{"01": StatusOK, "02": StatusFailed})
	rec(2, map[string]HostStatus{"01": StatusOK, "02": StatusFailed, "03": StatusOK})
	rec(3, map[string]HostStatus{"01": StatusFailed, "02": StatusSkipped, "03": StatusOK})
	rec(4, map[string]HostStatus{"01": StatusOK, "02": StatusOK, "03": StatusOK})

	hosts := g.Hosts()
	if len(hosts) != 3 {
		t.Fatalf("ledger tracks %d hosts, want 3", len(hosts))
	}
	byID := map[string]HostGap{}
	for _, hg := range hosts {
		byID[hg.HostID] = hg
	}
	h2 := byID["02"]
	if h2.Collected != 1 || h2.Missed != 3 || h2.Skipped != 1 {
		t.Errorf("host 02 accounting = %+v", h2)
	}
	if h2.LongestOutage != 3 {
		t.Errorf("host 02 longest outage = %d, want 3", h2.LongestOutage)
	}
	if got := h2.MissedRounds; len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("host 02 missed rounds = %v", got)
	}
	// Host 03 appeared in round 2: only 3 accounted rounds.
	if h3 := byID["03"]; h3.Rounds() != 3 || h3.Collected != 3 {
		t.Errorf("late host 03 accounting = %+v", h3)
	}
	// Fleet coverage: collected 7 of 11 host-rounds.
	if got, want := g.Coverage(), 7.0/11.0; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if g.Rounds() != 4 {
		t.Errorf("rounds = %d", g.Rounds())
	}
	if s := g.String(); s == "" {
		t.Error("empty ledger rendering")
	}
}
