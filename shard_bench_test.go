package frostlab_test

import (
	"fmt"
	"runtime"
	"testing"

	"frostlab/internal/core"
	"frostlab/internal/hardware"
	"frostlab/internal/telemetry"
)

// shardedConfig builds the scale-engine benchmark recipe: the reference
// winter and calibration over a synthetic tent-grouped fleet.
func shardedConfig(b *testing.B, tents, hostsPerTent int) core.Config {
	b.Helper()
	fleet, err := hardware.SyntheticFleet(tents, hostsPerTent, "scale-"+core.ReferenceSeed)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(core.ReferenceSeed)
	cfg.MonitorEvery = 0
	cfg.Fleet = fleet
	return cfg
}

// shardedRun runs one full sharded winter (construction, stepping,
// assembly), optionally with the shard telemetry plane attached, and
// returns its host count.
func shardedRun(b *testing.B, cfg core.Config, instrument bool) int {
	b.Helper()
	e, err := core.NewSharded(cfg, runtime.GOMAXPROCS(0))
	if err != nil {
		b.Fatal(err)
	}
	if instrument {
		e.InstrumentTelemetry(telemetry.NewRegistry())
	}
	r, err := e.Run()
	if err != nil {
		b.Fatal(err)
	}
	logOnce(b, fmt.Sprintf("sharded-%d-%v", len(r.Hosts), instrument),
		fmt.Sprintf("%d hosts, %d shards: tent failure rate %v, %d events, %.0f kWh",
			len(r.Hosts), e.Shards(), r.TentHostFailureRate, len(r.Events), float64(r.TentEnergy)))
	return len(r.Hosts)
}

// benchSharded reports ns per simulated host-hour over full sharded
// winters.
func benchSharded(b *testing.B, tents, hostsPerTent int) {
	cfg := shardedConfig(b, tents, hostsPerTent)
	hosts := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hosts = shardedRun(b, cfg, false)
	}
	reportPerHostHour(b, hosts, cfg)
}

// BenchmarkShardedFleet10k is the scale headline: a 10 080-host winter
// (112 tents × 90 hosts, 35 simulated days) through the struct-of-arrays
// sharded engine, a >500× improvement in ns/host-hour over the 19-host
// classic BenchmarkReferenceRun.
func BenchmarkShardedFleet10k(b *testing.B) {
	benchSharded(b, 112, 90)
}

// BenchmarkShardedFleet10kVsReference gates the scale claim: the
// 10 080-host winter finishes in less wall time than the 19-host
// reference run, timed alternately in the same process.
func BenchmarkShardedFleet10kVsReference(b *testing.B) {
	cfg := shardedConfig(b, 112, 90)
	ratio := medianRatio(b,
		func() { referenceRun(b, false, false, nil) },
		func() { shardedRun(b, cfg, false) })
	b.ReportMetric(1/ratio, "x_vs_reference")
	if ratio >= 1 {
		b.Fatalf("10k-host sharded winter takes %.2fx the 19-host reference run's wall time, want < 1", ratio)
	}
}

// BenchmarkShardTelemetryOverhead gates the shard telemetry plane (busy
// gauges, tick counter, step-duration histogram) on the 10k-host winter.
func BenchmarkShardTelemetryOverhead(b *testing.B) {
	cfg := shardedConfig(b, 112, 90)
	gateOverhead(b,
		func() { shardedRun(b, cfg, false) },
		func() { shardedRun(b, cfg, true) })
}

// BenchmarkShardedFleet100k stretches the same engine to 100 800 hosts;
// not gated, but logged so scaling regressions are visible in CI output.
func BenchmarkShardedFleet100k(b *testing.B) {
	benchSharded(b, 1120, 90)
}
