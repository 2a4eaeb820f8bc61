package core

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"runtime"
	"testing"
	"time"

	"frostlab/internal/hardware"
	"frostlab/internal/telemetry"
)

// scaleConfig is the scale engine's test recipe: the reference window and
// calibration over a synthetic tent-grouped fleet, monitoring off.
func scaleConfig(t testing.TB, tents, hostsPerTent int) Config {
	t.Helper()
	fleet, err := hardware.SyntheticFleet(tents, hostsPerTent, "scale-"+ReferenceSeed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ReferenceSeed)
	cfg.MonitorEvery = 0
	cfg.Fleet = fleet
	return cfg
}

func shardedRunMD5(t *testing.T, cfg Config, shards int) string {
	t.Helper()
	e, err := NewSharded(cfg, shards)
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

// TestShardedResultsIdenticalAcrossShardsAndGOMAXPROCS is the scale
// engine's determinism contract: the serialized Results of one fleet and
// seed are byte-identical at every shard count and GOMAXPROCS.
func TestShardedResultsIdenticalAcrossShardsAndGOMAXPROCS(t *testing.T) {
	cfg := scaleConfig(t, 12, 9)
	want := shardedRunMD5(t, cfg, 1)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2, 5, 12} {
			if got := shardedRunMD5(t, cfg, shards); got != want {
				t.Fatalf("GOMAXPROCS=%d shards=%d: results md5 %s, want %s", procs, shards, got, want)
			}
		}
	}
}

// TestSharded10kHostDeterminism double-runs a 10 080-host winter and
// requires bit-identical serialized output.
func TestSharded10kHostDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-host runs")
	}
	cfg := scaleConfig(t, 112, 90)
	first := shardedRunMD5(t, cfg, 8)
	if again := shardedRunMD5(t, cfg, 8); again != first {
		t.Fatalf("10k-host run not deterministic: %s then %s", first, again)
	}
}

// TestShardedRunShape sanity-checks the assembled Results: full envelope
// series, the whole fleet reported, failures present at fleet scale, and
// aggregates consistent.
func TestShardedRunShape(t *testing.T) {
	cfg := scaleConfig(t, 12, 9)
	e, err := NewSharded(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 3 || len(e.tentIDs) != 12 || e.Hosts() != 108 {
		t.Fatalf("shape: %d shards, %d tents, %d hosts", e.Shards(), len(e.tentIDs), e.Hosts())
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	ticks := int(cfg.End.Sub(cfg.Start) / failureStep)
	if r.InsideTemp.Len() != ticks || r.InsideRH.Len() != ticks {
		t.Fatalf("inside series %d/%d points, want %d", r.InsideTemp.Len(), r.InsideRH.Len(), ticks)
	}
	if r.OutsideTemp.Len() == 0 || r.OutsideRH.Len() == 0 {
		t.Fatal("outside series empty")
	}
	if len(r.Hosts) != 108 {
		t.Fatalf("%d host reports, want 108", len(r.Hosts))
	}
	if r.TentHostFailureRate.Trials != 108 {
		t.Fatalf("failure-rate trials %d, want 108", r.TentHostFailureRate.Trials)
	}
	if r.TentHostFailureRate.Events == 0 {
		t.Fatal("a 108-host winter with defective vendor-B units should see at least one transient")
	}
	if r.TotalCycles == 0 || r.TentEnergy <= 0 || r.MeterLastReading <= 0 {
		t.Fatalf("aggregates: cycles=%d energy=%v meter=%v", r.TotalCycles, r.TentEnergy, r.MeterLastReading)
	}
	if len(r.Modifications) != len(cfg.Modifications) {
		t.Fatalf("%d modifications applied, want %d", len(r.Modifications), len(cfg.Modifications))
	}
	transientEvents := 0
	for _, ev := range r.Events {
		if ev.Kind == EventTransient {
			transientEvents++
		}
	}
	if transientEvents == 0 {
		t.Fatal("no transient events in log")
	}
	for id, rep := range r.Hosts {
		if rep.CPUMax < rep.CPUMin {
			t.Fatalf("host %s: CPU extremes inverted (%v > %v)", id, rep.CPUMin, rep.CPUMax)
		}
	}
}

// TestShardedStepAllocs gates the warm stepping path at zero allocations
// per tick: after construction preallocated the event and repair buffers,
// steady-state stepping — including fired events and queued repairs —
// must not touch the heap.
func TestShardedStepAllocs(t *testing.T) {
	cfg := scaleConfig(t, 12, 9)
	e, err := NewSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh := e.shards[0]
	tick := 0
	stepOnce := func() {
		now := cfg.Start.Add(time.Duration(tick+1) * failureStep)
		sh.step(int32(tick), now)
		tick++
	}
	for tick < 200 {
		stepOnce()
	}
	if allocs := testing.AllocsPerRun(800, stepOnce); allocs != 0 {
		t.Fatalf("warm sharded step allocates %.2f objects/tick, want 0", allocs)
	}
}

// TestShardedTelemetryCounts checks the instrumented engine's metric
// plane: one busy gauge per shard, and the tick counter equal to
// shards × horizon ticks.
func TestShardedTelemetryCounts(t *testing.T) {
	cfg := scaleConfig(t, 6, 4)
	e, err := NewSharded(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	e.InstrumentTelemetry(reg)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	ticks := int64(cfg.End.Sub(cfg.Start)/failureStep) * 3
	if got := e.met.ticks.Value(); int64(got) != ticks {
		t.Fatalf("frostlab_shard_ticks_total %v, want %d", got, ticks)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"frostlab_shard_ticks_total", "frostlab_shard_step_duration_seconds_count",
		`frostlab_shard_busy{shard="0"}`, `frostlab_shard_busy{shard="2"}`,
		"frostlab_shard_count 3", "frostlab_shard_hosts 24",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("scrape missing %q:\n%s", want, buf.String())
		}
	}
}

// TestNewShardedValidation exercises the constructor's rejections and the
// shard-count clamp.
func TestNewShardedValidation(t *testing.T) {
	base := scaleConfig(t, 4, 3)

	cfg := base
	cfg.Fleet = nil
	if _, err := NewSharded(cfg, 1); err == nil {
		t.Fatal("nil fleet accepted")
	}

	cfg = base
	ref, err := hardware.ReferenceFleet()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet = ref
	if _, err := NewSharded(cfg, 1); err == nil {
		t.Fatal("non-tent-grouped reference fleet accepted")
	}

	cfg = base
	cfg.MonitorEvery = 20 * time.Minute
	if _, err := NewSharded(cfg, 1); err == nil {
		t.Fatal("monitoring plane accepted")
	}

	e, err := NewSharded(base, 99)
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 4 {
		t.Fatalf("shard clamp: %d shards over 4 tents", e.Shards())
	}
	if e, err = NewSharded(base, 0); err != nil || e.Shards() != 1 {
		t.Fatalf("shard floor: %v, %d shards", err, e.Shards())
	}

	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run on one engine accepted")
	}
}

// TestShardedSaveGolden pins the serialized bytes of a small synthetic
// sharded run, so any change to SaveResults (host ordering included)
// that moves a byte fails here and not only in the benchmark anchors.
func TestShardedSaveGolden(t *testing.T) {
	const want = "b0e5b8e23b572e0ccaae2f70d98c6b05"
	if got := shardedRunMD5(t, scaleConfig(t, 24, 9), 3); got != want {
		t.Fatalf("sharded SaveResults md5 %s, want %s", got, want)
	}
}
