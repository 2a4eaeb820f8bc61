package chaos_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"frostlab/internal/chaos"
	"frostlab/internal/monitor"
	"frostlab/internal/wire"
)

var t0 = time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)

// fleetIDs returns n two-digit host IDs: 01, 02, ...
func fleetIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%02d", i+1)
	}
	return ids
}

func buildAgents(ids []string) (map[string]*monitor.Agent, wire.Keystore) {
	agents := make(map[string]*monitor.Agent, len(ids))
	keys := make(wire.Keystore, len(ids))
	for _, id := range ids {
		store := monitor.NewFileStore()
		store.Append(monitor.MD5Log, []byte("2010-02-19T12:10:00Z OK d41d8cd98f00b204e9800998ecf8427e\n"))
		store.Append(monitor.SensorLog, []byte("2010-02-19T12:10:00Z cpu=-4.1\n"))
		agents[id] = monitor.NewAgent(id, store)
		keys[id] = []byte("psk-" + id)
	}
	return agents, keys
}

// noSleep is a deterministic Sleep that never blocks.
func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// chaoticFleet wires agents, a chaos injector, and a FleetCollector
// together the way frostctl -phase chaos does.
func chaoticFleet(t *testing.T, ids []string, spec chaos.Spec) *monitor.FleetCollector {
	t.Helper()
	agents, keys := buildAgents(ids)
	inj, err := chaos.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := monitor.NewFleetCollector(monitor.NewCollector(0), monitor.FleetConfig{
		Hosts:        ids,
		Dial:         inj.WrapDialer(monitor.InProcessDialer(agents, keys, spec.Seed)),
		KeyFor:       func(id string) ([]byte, error) { return keys[id], nil },
		NonceFor:     monitor.InProcessNonces(spec.Seed),
		Retry:        monitor.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second, Multiplier: 2},
		Breaker:      monitor.BreakerConfig{Trip: 2, Cooldown: 2},
		PhaseTimeout: 2 * time.Second,
		RoundTimeout: 30 * time.Second,
		Jitter:       monitor.DeterministicJitter(spec.Seed),
		Sleep:        noSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fc
}

func TestFaultForDeterministic(t *testing.T) {
	spec := chaos.Spec{
		Seed:       "chaos-det",
		PRefuse:    0.1,
		PStallRead: 0.1,
		PCut:       0.1,
		PCorrupt:   0.1,
		Down:       map[string][]chaos.RoundRange{"02": {{From: 3, To: 5}}},
	}
	a, err := chaos.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	other, err := chaos.New(chaos.Spec{Seed: "different", PRefuse: 0.1, PStallRead: 0.1, PCut: 0.1, PCorrupt: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[chaos.Kind]int{}
	diff := 0
	// Draw b's faults in reverse order to prove order independence.
	type key struct {
		host           string
		round, attempt int
	}
	bFaults := map[key]chaos.Fault{}
	for r := 8; r >= 1; r-- {
		for a := 3; a >= 1; a-- {
			for i := 4; i >= 1; i-- {
				h := fmt.Sprintf("%02d", i)
				bFaults[key{h, r, a}] = b.FaultFor(h, r, a)
			}
		}
	}
	for round := 1; round <= 8; round++ {
		for attempt := 1; attempt <= 3; attempt++ {
			for i := 1; i <= 4; i++ {
				host := fmt.Sprintf("%02d", i)
				fa := a.FaultFor(host, round, attempt)
				if fb := bFaults[key{host, round, attempt}]; fa != fb {
					t.Fatalf("same-seed faults diverge at %s/r%d/a%d: %+v vs %+v", host, round, attempt, fa, fb)
				}
				if fo := other.FaultFor(host, round, attempt); fa != fo {
					diff++
				}
				kinds[fa.Kind]++
			}
		}
	}
	if diff == 0 {
		t.Error("different seeds drew identical fault sequences")
	}
	// The down schedule overrides the probabilistic draw.
	for r := 3; r <= 5; r++ {
		if f := a.FaultFor("02", r, 1); f.Kind != chaos.Refuse {
			t.Errorf("down host 02 round %d fault = %v, want refuse", r, f.Kind)
		}
	}
	if kinds[chaos.None] == 0 || kinds[chaos.Refuse] == 0 {
		t.Errorf("fault mix looks degenerate: %v", kinds)
	}
}

func TestDownScheduleRanges(t *testing.T) {
	inj, err := chaos.New(chaos.Spec{
		Seed: "ranges",
		Down: map[string][]chaos.RoundRange{
			"01": {{From: 2, To: 4}, {From: 9}}, // 9 onward: open-ended
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for round, want := range map[int]chaos.Kind{
		1: chaos.None, 2: chaos.Refuse, 4: chaos.Refuse, 5: chaos.None,
		8: chaos.None, 9: chaos.Refuse, 1000: chaos.Refuse,
	} {
		if f := inj.FaultFor("01", round, 1); f.Kind != want {
			t.Errorf("round %d fault = %v, want %v", round, f.Kind, want)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := chaos.New(chaos.Spec{PRefuse: 0.7, PCut: 0.5}); err == nil {
		t.Error("probability sum > 1 accepted")
	}
	if _, err := chaos.New(chaos.Spec{PCorrupt: -0.1}); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := chaos.New(chaos.Spec{PCut: math.NaN()}); err == nil {
		t.Error("NaN probability accepted")
	}
	if _, err := chaos.New(chaos.Spec{Down: map[string][]chaos.RoundRange{"01": {{From: 5, To: 2}}}}); err == nil {
		t.Error("inverted round range accepted")
	}
}

// collectOverFault runs one in-process collection with the given fault
// injected on the collector side of the pipe.
func collectOverFault(t *testing.T, f chaos.Fault) error {
	t.Helper()
	agents, keys := buildAgents([]string{"01"})
	coll := monitor.NewCollector(0)
	a, c := net.Pipe()
	defer a.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := wire.Accept(a, keys, wire.CounterNonce("fault/agent"))
		if err != nil {
			return
		}
		_ = agents["01"].Serve(sess)
	}()
	conn := chaos.Wrap(c, f)
	defer conn.Close()
	sess, err := wire.Dial(conn, "01", keys["01"], wire.CounterNonce("fault/coll"))
	if err == nil {
		_, err = coll.CollectHost(sess, "01", t0)
	}
	conn.Close()
	a.Close()
	wg.Wait()
	return err
}

func TestCorruptionRejectedAsTampered(t *testing.T) {
	// Offset 100 lands after the 68-byte server handshake: inside the
	// first data frame the collector receives. wire must surface
	// ErrTampered — mis-accepting a flipped bit would silently corrupt
	// the mirrored science data.
	err := collectOverFault(t, chaos.Fault{Kind: chaos.Corrupt, CorruptOffset: 100, CorruptBit: 3})
	if !errors.Is(err, wire.ErrTampered) {
		t.Fatalf("corrupted stream error = %v, want wire.ErrTampered", err)
	}
}

func TestCorruptionInHandshakeRejectedAsAuth(t *testing.T) {
	// Offset 10 lands inside the server nonce: the proof check fails.
	err := collectOverFault(t, chaos.Fault{Kind: chaos.Corrupt, CorruptOffset: 10, CorruptBit: 0})
	if !errors.Is(err, wire.ErrAuth) {
		t.Fatalf("corrupted handshake error = %v, want wire.ErrAuth", err)
	}
}

func TestCutMidFrameSurfacesError(t *testing.T) {
	err := collectOverFault(t, chaos.Fault{Kind: chaos.Cut, CutAfter: 80})
	if !errors.Is(err, chaos.ErrCut) {
		t.Fatalf("cut stream error = %v, want chaos.ErrCut", err)
	}
}

func TestStallSurfacesTimeoutImmediately(t *testing.T) {
	start := time.Now()
	err := collectOverFault(t, chaos.Fault{Kind: chaos.StallRead})
	if err == nil {
		t.Fatal("stalled collection succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("stall error = %v, want a net.Error timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("immediate stall took %v", d)
	}
}

// TestDegradedRoundCompletes is the satellite requirement: a round against
// a fleet with one dead and one stalled agent completes within the
// deadline, records both gaps, and succeeds for the healthy hosts — with
// no real sleeps anywhere.
func TestDegradedRoundCompletes(t *testing.T) {
	ids := fleetIDs(4)
	fc := chaoticFleet(t, ids, chaos.Spec{
		Seed:    "degraded",
		Down:    map[string][]chaos.RoundRange{"02": {{From: 1}}},
		Stalled: map[string][]chaos.RoundRange{"03": {{From: 1}}},
	})
	start := time.Now()
	rep := fc.Round(context.Background(), t0)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("degraded round took %v", d)
	}
	want := map[string]monitor.HostStatus{
		"01": monitor.StatusOK, "02": monitor.StatusFailed,
		"03": monitor.StatusFailed, "04": monitor.StatusOK,
	}
	for _, h := range rep.Hosts {
		if h.Status != want[h.HostID] {
			t.Errorf("host %s = %+v, want %s", h.HostID, h, want[h.HostID])
		}
	}
	if rep.Hosts[1].Attempts != 3 || rep.Hosts[2].Attempts != 3 {
		t.Errorf("faulty hosts retried %d/%d times, want 3/3", rep.Hosts[1].Attempts, rep.Hosts[2].Attempts)
	}
	if !strings.Contains(rep.Hosts[1].Err, "refused") {
		t.Errorf("dead host error = %q", rep.Hosts[1].Err)
	}
	if !strings.Contains(rep.Hosts[2].Err, "timeout") {
		t.Errorf("stalled host error = %q", rep.Hosts[2].Err)
	}
	// Both gaps are in the ledger; the healthy hosts are not.
	hosts := fc.Ledger().Hosts()
	for _, hg := range hosts {
		switch hg.HostID {
		case "02", "03":
			if hg.Missed != 1 || hg.Collected != 0 {
				t.Errorf("ledger %s = %+v", hg.HostID, hg)
			}
		default:
			if hg.Missed != 0 || hg.Collected != 1 {
				t.Errorf("ledger %s = %+v", hg.HostID, hg)
			}
		}
	}
	if got, want := fc.Ledger().Coverage(), 0.5; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
}

// runChaosCampaign executes a fixed multi-round chaos study and returns
// the serialized reports and ledger rendering.
func runChaosCampaign(t *testing.T, seed string, rounds int) (string, string) {
	t.Helper()
	ids := fleetIDs(9)
	fc := chaoticFleet(t, ids, chaos.Spec{
		Seed:     seed,
		PCorrupt: 0.15,
		PCut:     0.1,
		Down:     map[string][]chaos.RoundRange{"03": {{From: 1, To: 4}}},
		Stalled:  map[string][]chaos.RoundRange{"07": {{From: 2}}},
	})
	for r := 0; r < rounds; r++ {
		fc.Round(context.Background(), t0.Add(time.Duration(r)*20*time.Minute))
	}
	reports, err := json.Marshal(fc.Reports())
	if err != nil {
		t.Fatal(err)
	}
	return string(reports), fc.Ledger().String()
}

// TestChaosRunsReplayByteIdentically is the acceptance criterion: same
// seed + same fault spec ⇒ byte-identical gap ledger and RoundReports
// across two independent runs.
func TestChaosRunsReplayByteIdentically(t *testing.T) {
	const rounds = 8
	rep1, ledger1 := runChaosCampaign(t, "replay-me", rounds)
	rep2, ledger2 := runChaosCampaign(t, "replay-me", rounds)
	if rep1 != rep2 {
		t.Errorf("RoundReports diverged between identical runs:\n%s\n---\n%s", rep1, rep2)
	}
	if ledger1 != ledger2 {
		t.Errorf("gap ledgers diverged:\n%s\n---\n%s", ledger1, ledger2)
	}
	repOther, _ := runChaosCampaign(t, "other-seed", rounds)
	if rep1 == repOther {
		t.Error("different seeds replayed identically — injector is not seeded")
	}
}

// TestNineHostFleetTwoFaultyWithinDeadline is the other acceptance
// criterion: 2/9 agents down or stalled, the round completes within one
// configured round deadline and reports per-host coverage.
func TestNineHostFleetTwoFaultyWithinDeadline(t *testing.T) {
	const roundDeadline = 10 * time.Second
	ids := fleetIDs(9)
	agents, keys := buildAgents(ids)
	inj, err := chaos.New(chaos.Spec{
		Seed: "nine-hosts",
		Down: map[string][]chaos.RoundRange{"04": {{From: 1}}},
		// The stalled agent blocks "forever": only the collector's
		// deadlines can save the round.
		Stalled:    map[string][]chaos.RoundRange{"08": {{From: 1}}},
		StallDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := monitor.NewFleetCollector(monitor.NewCollector(0), monitor.FleetConfig{
		Hosts:        ids,
		Dial:         inj.WrapDialer(monitor.InProcessDialer(agents, keys, "nine-hosts")),
		KeyFor:       func(id string) ([]byte, error) { return keys[id], nil },
		NonceFor:     monitor.InProcessNonces("nine-hosts"),
		Retry:        monitor.RetryPolicy{MaxAttempts: 2, BaseBackoff: 10 * time.Millisecond},
		Breaker:      monitor.BreakerConfig{Trip: 3, Cooldown: 3},
		PhaseTimeout: 250 * time.Millisecond,
		RoundTimeout: roundDeadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep := fc.Round(context.Background(), t0)
	if d := time.Since(start); d >= roundDeadline {
		t.Fatalf("round took %v, deadline %v", d, roundDeadline)
	}
	if got, want := rep.Collected(), 7; got != want {
		t.Fatalf("collected %d/9 hosts, want %d", got, want)
	}
	if got, want := rep.Coverage(), 7.0/9.0; got != want {
		t.Errorf("round coverage = %v, want %v", got, want)
	}
	for _, h := range rep.Hosts {
		switch h.HostID {
		case "04", "08":
			if h.Status != monitor.StatusFailed {
				t.Errorf("faulty host %s = %+v", h.HostID, h)
			}
		default:
			if h.Status != monitor.StatusOK {
				t.Errorf("healthy host %s = %+v", h.HostID, h)
			}
		}
	}
}
