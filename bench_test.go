// Package frostlab_test is the paper-artefact benchmark harness: one
// benchmark per table and figure in the evaluation (see DESIGN.md §3 for
// the experiment index). Each benchmark regenerates its artefact from a
// shared reference run and logs the headline rows it produces, so
//
//	go test -bench=. -benchmem
//
// both measures the regeneration cost and re-derives every number the
// reproduction reports in EXPERIMENTS.md.
package frostlab_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"frostlab/internal/campaign"
	"frostlab/internal/control"
	"frostlab/internal/core"
	"frostlab/internal/power"
	"frostlab/internal/report"
	"frostlab/internal/telemetry"
	"frostlab/internal/weather"
)

// referenceResults runs the reference experiment once per benchmark binary.
var referenceResults = sync.OnceValues(func() (*core.Results, error) {
	cfg := core.DefaultConfig(core.ReferenceSeed)
	cfg.MonitorEvery = 2 * time.Hour // keep the corpus numbers meaningful but fast
	exp, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return exp.Run()
})

func mustResults(b *testing.B) *core.Results {
	b.Helper()
	r, err := referenceResults()
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// logOnce logs a string through the benchmark exactly once per process.
var logged sync.Map

func logOnce(b *testing.B, key, s string) {
	b.Helper()
	if _, dup := logged.LoadOrStore(key, true); !dup {
		b.Log("\n" + s)
	}
}

// firstLines truncates a rendering to its first n lines for the log.
func firstLines(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// reportPerHostHour normalises a run benchmark to ns per simulated
// host-hour, the cross-fleet-size figure of merit: a 19-host classic run
// and a 10k-host sharded run land on the same axis.
func reportPerHostHour(b *testing.B, hosts int, cfg core.Config) {
	b.Helper()
	hours := cfg.End.Sub(cfg.Start).Hours()
	if hosts <= 0 || hours <= 0 || b.N == 0 {
		return
	}
	perRun := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perRun/(float64(hosts)*hours), "ns/host-hour")
}

// gatePairs is the fewest pairs of runs a paired gate times, however
// small b.N is. At the default benchtime a gate runs one or two
// iterations, and a median of five or six ratios let one noisy pair fail
// a gate with no real shift.
const gatePairs = 15

// overheadBudgetPct is the most an instrumented run may cost over its
// bare twin. The instruments are scrape-time views over counters the
// engines already maintain, so the hot path gains no allocations.
const overheadBudgetPct = 5.0

// medianRatio times base and arm back to back, max(gatePairs, b.N)
// pairs, alternating which goes first and starting each from a
// freshly collected heap, and returns the median over pairs of arm's
// wall time divided by base's. Pairing cancels machine drift between
// samples; the median ignores a sample a noisy neighbour hit.
func medianRatio(b *testing.B, base, arm func()) float64 {
	b.Helper()
	timed := func(f func()) float64 {
		runtime.GC()
		t0 := time.Now()
		f()
		return float64(time.Since(t0))
	}
	ratios := make([]float64, max(gatePairs, b.N))
	for i := range ratios {
		var tb, ta float64
		if i%2 == 0 {
			tb = timed(base)
			ta = timed(arm)
		} else {
			ta = timed(arm)
			tb = timed(base)
		}
		ratios[i] = ta / tb
	}
	sort.Float64s(ratios)
	n := len(ratios)
	return (ratios[(n-1)/2] + ratios[n/2]) / 2
}

// gateOverhead fails the benchmark when the instrumented run's median
// paired overhead over the bare run exceeds overheadBudgetPct.
func gateOverhead(b *testing.B, bare, instrumented func()) {
	b.Helper()
	pct := 100 * (medianRatio(b, bare, instrumented) - 1)
	b.ReportMetric(pct, "overhead_%")
	if pct > overheadBudgetPct {
		b.Fatalf("instrumented run costs %.2f%% over the bare run, budget %.0f%%", pct, overheadBudgetPct)
	}
}

// referenceRun runs the full normal-phase experiment once (35 simulated
// days, 19 hosts, physics at 1-minute steps), open-loop or with the E14
// ventilation controller stepping the damper every 5 simulated minutes.
// Given a registry, it registers the experiment's metrics on it before
// the run. Instrumented, it also attaches a span tracer and scrapes the
// registry once at the end. It returns the host count.
func referenceRun(b *testing.B, closedLoop, instrument bool, reg *telemetry.Registry) int {
	b.Helper()
	cfg := core.DefaultConfig(core.ReferenceSeed)
	cfg.MonitorEvery = 0
	if closedLoop {
		cc := control.DefaultConfig()
		cfg.Control = &cc
	}
	exp, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if reg != nil {
		exp.InstrumentTelemetry(reg)
	}
	if instrument {
		exp.WithTracer(telemetry.NewTracer(telemetry.DefaultTraceCapacity))
	}
	r, err := exp.Run()
	if err != nil {
		b.Fatal(err)
	}
	if instrument {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			b.Fatal(err)
		}
		if closedLoop && !strings.Contains(sb.String(), "frostlab_control_ticks_total") {
			b.Fatal("instrumented closed-loop run exposes no control metrics")
		}
	}
	return len(r.Hosts)
}

// scrapeValue reads one unlabelled sample from reg.
func scrapeValue(b *testing.B, reg *telemetry.Registry, name string) float64 {
	b.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		b.Fatal(err)
	}
	samples, err := telemetry.ParseText(sb.String())
	if err != nil {
		b.Fatal(err)
	}
	s, ok := telemetry.FindSample(samples, name)
	if !ok {
		b.Fatalf("registry exposes no %s", name)
	}
	return s.Value
}

// BenchmarkReferenceRun measures the full normal-phase experiment. It
// also reports install-wait-ms/op, the wall time host installs spent on
// trees the pack-ahead goroutine claimed: the engine's share of install-
// time packing. Registering the metrics adds scrape-time views only.
func BenchmarkReferenceRun(b *testing.B) {
	hosts, wait := 0, 0.0
	for i := 0; i < b.N; i++ {
		reg := telemetry.NewRegistry()
		hosts = referenceRun(b, false, false, reg)
		b.StopTimer()
		wait += scrapeValue(b, reg, "frostlab_workload_install_wait_seconds_total")
		b.StartTimer()
	}
	reportPerHostHour(b, hosts, core.DefaultConfig(core.ReferenceSeed))
	b.ReportMetric(1e3*wait/float64(b.N), "install-wait-ms/op")
}

// BenchmarkControlledRun measures the closed-loop reference run. The
// control stage holds a zero-allocation tick budget
// (core.TestControlTickAllocs), so the delta over BenchmarkReferenceRun
// is pure arithmetic, not garbage.
func BenchmarkControlledRun(b *testing.B) {
	hosts := 0
	for i := 0; i < b.N; i++ {
		hosts = referenceRun(b, true, false, nil)
	}
	reportPerHostHour(b, hosts, core.DefaultConfig(core.ReferenceSeed))
}

// BenchmarkTelemetryOverhead gates the telemetry plane: the instrumented
// reference run stays within the overhead budget of the bare one (see
// core.TestFailureTickAllocs for the hot path's 0 allocs).
func BenchmarkTelemetryOverhead(b *testing.B) {
	gateOverhead(b,
		func() { referenceRun(b, false, false, nil) },
		func() { referenceRun(b, false, true, telemetry.NewRegistry()) })
}

// BenchmarkControlOverhead gates the closed-loop run's instruments the
// same way: the controller gauges are scrape-time views and the damper
// counter track writes into the tracer's preallocated ring.
func BenchmarkControlOverhead(b *testing.B) {
	gateOverhead(b,
		func() { referenceRun(b, true, false, nil) },
		func() { referenceRun(b, true, true, telemetry.NewRegistry()) })
}

// BenchmarkFig2InstallTimeline regenerates the Fig. 2 installation Gantt.
func BenchmarkFig2InstallTimeline(b *testing.B) {
	r := mustResults(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		s, err := report.Fig2Timeline(r)
		if err != nil {
			b.Fatal(err)
		}
		out = s
	}
	logOnce(b, "fig2", out)
}

// BenchmarkFig3Temperatures regenerates the Fig. 3 temperature plot.
func BenchmarkFig3Temperatures(b *testing.B) {
	r := mustResults(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		s, err := report.Fig3Temperatures(r)
		if err != nil {
			b.Fatal(err)
		}
		out = s
	}
	b.StopTimer()
	o, _ := r.OutsideTemp.Summarize()
	in, _ := r.InsideTemp.Summarize()
	logOnce(b, "fig3", firstLines(out, 2)+
		"\n"+
		"outside: min "+format1(o.Min)+" mean "+format1(o.Mean)+
		" | inside (from Lascar arrival): min "+format1(in.Min)+" mean "+format1(in.Mean)+
		"\npaper anchors: outside extreme -22, prototype weekend mean -9.2")
}

// BenchmarkFig4Humidity regenerates the Fig. 4 humidity plot.
func BenchmarkFig4Humidity(b *testing.B) {
	r := mustResults(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		s, err := report.Fig4Humidity(r)
		if err != nil {
			b.Fatal(err)
		}
		out = s
	}
	b.StopTimer()
	orh, _ := r.OutsideRH.Summarize()
	irh, _ := r.InsideRH.Summarize()
	logOnce(b, "fig4", firstLines(out, 2)+
		"\noutside RH stddev "+format1(orh.Stddev)+" | inside RH stddev "+format1(irh.Stddev)+
		"\npaper: inside RH more stable; >80-90% RH observed without failures")
}

// BenchmarkTableFailureRates regenerates the §4 failure-rate table.
func BenchmarkTableFailureRates(b *testing.B) {
	r := mustResults(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.TableFailureRates(r)
	}
	logOnce(b, "failures", out)
}

// BenchmarkTableWrongHashes regenerates the §4.2.2 wrong-hash table.
func BenchmarkTableWrongHashes(b *testing.B) {
	r := mustResults(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.TableWrongHashes(r)
	}
	logOnce(b, "hashes", firstLines(out, 6))
}

// BenchmarkTableMemoryErrorModel regenerates the §4.2.2 page-failure
// estimate.
func BenchmarkTableMemoryErrorModel(b *testing.B) {
	r := mustResults(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.TableMemoryModel(r)
	}
	logOnce(b, "memory", out)
}

// BenchmarkTablePUE regenerates the §5 cooling-chain arithmetic.
func BenchmarkTablePUE(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		s, err := report.TablePUE()
		if err != nil {
			b.Fatal(err)
		}
		out = s
	}
	logOnce(b, "pue", out)
}

// BenchmarkPrototypeWeekend reruns the §3.1 prototype phase.
func BenchmarkPrototypeWeekend(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		p, err := core.RunPrototype(core.ReferenceSeed)
		if err != nil {
			b.Fatal(err)
		}
		out = report.TablePrototype(p)
	}
	logOnce(b, "prototype", out)
}

// BenchmarkSensorFaultReplay regenerates the §4.2.1 lm-sensors incident
// table from the reference run's event log.
func BenchmarkSensorFaultReplay(b *testing.B) {
	r := mustResults(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.TableSensorFault(r)
	}
	logOnce(b, "lmsensors", out)
}

// BenchmarkTableEconomizerSavings evaluates the §1 economizer comparison
// over the experiment window.
func BenchmarkTableEconomizerSavings(b *testing.B) {
	wx := weather.ReferenceWinter0910(core.ReferenceSeed)
	cfg := core.DefaultConfig(core.ReferenceSeed)
	var out string
	for i := 0; i < b.N; i++ {
		cmp, err := power.DefaultEconomizer().Compare(wx, 75_000, cfg.Start, cfg.End, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		out = report.TableEconomizer(cmp)
	}
	logOnce(b, "savings", out)
}

// BenchmarkTableMonitoring regenerates the §3.5 monitoring-plane summary.
func BenchmarkTableMonitoring(b *testing.B) {
	r := mustResults(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = report.TableMonitoring(r)
	}
	logOnce(b, "monitoring", out)
}

func format1(v float64) string { return fmt.Sprintf("%.1f", v) }

// BenchmarkCampaign32Reps runs a 32-replicate Monte-Carlo campaign
// (four-day horizon so one iteration stays in benchmark range) at
// increasing worker-pool widths. On multi-core hardware the runs are
// independent simulations with no shared state, so throughput should
// scale near-linearly from 1 worker to NumCPU.
func BenchmarkCampaign32Reps(b *testing.B) {
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		if n > 4 {
			workerCounts = append(workerCounts, n/2)
		}
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := campaign.Spec{
					Seed:    "winter0910-bench",
					Reps:    32,
					Workers: workers,
					Days:    4,
				}
				sum, err := campaign.Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				if sum.Completed != 32 || sum.Failed != 0 {
					b.Fatalf("campaign completed %d failed %d, want 32/0", sum.Completed, sum.Failed)
				}
				if i == 0 {
					logOnce(b, "campaign",
						fmt.Sprintf("pooled tent %s, control %s over 32 replicates",
							sum.Points[0].Tent, sum.Points[0].Control))
				}
			}
		})
	}
}
