package frostlab_test

import (
	"fmt"
	"testing"
	"time"

	"frostlab/internal/analysis"
	"frostlab/internal/delta"
	"frostlab/internal/failure"
	"frostlab/internal/sensors"
	"frostlab/internal/simkernel"
	"frostlab/internal/thermal"
	"frostlab/internal/units"
	"frostlab/internal/weather"
	"frostlab/internal/workload"
)

// Ablation benchmarks: each isolates one design choice of the experiment
// (or of this reproduction) and reports what changes without it. They are
// cheap to run and log their findings once.

// BenchmarkAblationECC asks what §4.2.2 would have looked like with
// error-correcting memory everywhere: the wrong-hash count must drop to
// zero, at the paper's own cycle count.
func BenchmarkAblationECC(b *testing.B) {
	var withECC, withoutECC int
	for i := 0; i < b.N; i++ {
		eng := failure.NewEngine(simkernel.NewRNG("ablation-ecc"))
		host := eng.RegisterHost("host", false)
		withECC, withoutECC = 0, 0
		for c := 0; c < 27627; c++ {
			if eng.CycleCorrupted(host, 115828, false) {
				withoutECC++
			}
			if eng.CycleCorrupted(host, 115828, true) {
				withECC++
			}
		}
	}
	logOnce(b, "abl-ecc", fmt.Sprintf(
		"27627 cycles at paper page traffic: non-ECC %d wrong hashes (paper: 5), ECC %d",
		withoutECC, withECC))
	if withECC != 0 {
		b.Fatalf("ECC produced %d corruptions", withECC)
	}
}

// BenchmarkAblationStartFuzz quantifies §3.5's desynchronisation sleep:
// without the 0–119 s fuzz all 18 hosts start their cycle in the same
// second; with it, collisions nearly vanish.
func BenchmarkAblationStartFuzz(b *testing.B) {
	start := time.Date(2010, 2, 19, 12, 0, 0, 0, time.UTC)
	run := func(withFuzz bool) (maxConcurrent int) {
		sched := simkernel.NewScheduler(start)
		rng := simkernel.NewRNG("ablation-fuzz")
		starts := map[time.Time]int{}
		for h := 0; h < 18; h++ {
			var fuzz func() time.Duration
			if withFuzz {
				fuzz = workload.StartFuzz(rng, fmt.Sprintf("%02d", h))
			}
			if _, err := sched.Periodic(start, workload.CyclePeriod, fuzz, func(now time.Time) {
				starts[now.Truncate(time.Second)]++
			}); err != nil {
				b.Fatal(err)
			}
		}
		sched.RunUntil(start.Add(24 * time.Hour))
		for _, n := range starts {
			if n > maxConcurrent {
				maxConcurrent = n
			}
		}
		return maxConcurrent
	}
	var with, without int
	for i := 0; i < b.N; i++ {
		with, without = run(true), run(false)
	}
	logOnce(b, "abl-fuzz", fmt.Sprintf(
		"max simultaneous cycle starts per second over 24h: without fuzz %d (all hosts), with 0-119s fuzz %d",
		without, with))
	if without != 18 {
		b.Fatalf("unfuzzed fleet should fully collide, got %d", without)
	}
	if with > 4 {
		b.Fatalf("fuzzed fleet still collides %d-wide", with)
	}
}

// BenchmarkAblationOutlierCleaning shows what Figs. 3/4 would look like
// without §3.3's outlier removal: readout trips leave +21 °C office
// spikes in a sub-zero record.
func BenchmarkAblationOutlierCleaning(b *testing.B) {
	var rawMax, cleanMax float64
	for i := 0; i < b.N; i++ {
		rng := simkernel.NewRNG("ablation-lascar")
		env := frozenEnv{temp: -9, rh: 82}
		start := time.Date(2010, 3, 5, 10, 0, 0, 0, time.UTC)
		l, err := sensors.NewLascar(rng, env, start)
		if err != nil {
			b.Fatal(err)
		}
		sched := simkernel.NewScheduler(start)
		if err := l.Install(sched, start); err != nil {
			b.Fatal(err)
		}
		if _, err := sched.At(start.Add(24*time.Hour), func(now time.Time) {
			l.BeginReadout(now.Add(20 * time.Minute))
		}); err != nil {
			b.Fatal(err)
		}
		sched.RunUntil(start.Add(48 * time.Hour))
		raw, _ := l.Temp.Summarize()
		cleaned, _ := l.CleanedSeries()
		cs, err := cleaned.Summarize()
		if err != nil {
			b.Fatal(err)
		}
		rawMax, cleanMax = raw.Max, cs.Max
	}
	logOnce(b, "abl-clean", fmt.Sprintf(
		"48h at -9°C with one readout trip: raw max %.1f°C (office spike), cleaned max %.1f°C",
		rawMax, cleanMax))
	if rawMax < 15 || cleanMax > 0 {
		b.Fatalf("cleaning ablation inverted: raw %.1f, clean %.1f", rawMax, cleanMax)
	}
}

type frozenEnv struct {
	temp units.Celsius
	rh   units.RelHumidity
}

func (f frozenEnv) Air() (units.Celsius, units.RelHumidity) { return f.temp, f.rh }

// BenchmarkAblationTentModifications walks the R, I, B, F sequence and
// reports the equilibrium ΔT after each — the quantitative version of the
// Fig. 3 annotations.
func BenchmarkAblationTentModifications(b *testing.B) {
	wx := weather.ReferenceWinter0910("ablation-mods")
	steps := []struct {
		label string
		mods  []thermal.Modification
	}{
		{"as shipped", nil},
		{"R", []thermal.Modification{thermal.ReflectiveFoil}},
		{"R+I", []thermal.Modification{thermal.ReflectiveFoil, thermal.RemoveInnerTent}},
		{"R+I+B", []thermal.Modification{thermal.ReflectiveFoil, thermal.RemoveInnerTent, thermal.OpenBottom}},
		{"R+I+B+F", []thermal.Modification{thermal.ReflectiveFoil, thermal.RemoveInnerTent, thermal.OpenBottom, thermal.InstallFan}},
	}
	var out string
	for i := 0; i < b.N; i++ {
		out = ""
		prev := 1e9
		for _, st := range steps {
			att, err := analysis.AttributeDeltaT(wx, st.mods, 1400,
				weather.ExperimentEpoch, weather.ExperimentEpoch.AddDate(0, 0, 3), time.Minute)
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("  %-10s mean ΔT %.1f°C\n", st.label, att.MeanDeltaT)
			if att.MeanDeltaT >= prev {
				b.Fatalf("modification step %s did not reduce ΔT", st.label)
			}
			prev = att.MeanDeltaT
		}
	}
	logOnce(b, "abl-mods", "tent modification ablation (1.4kW load):\n"+out)
}

// BenchmarkAblationDeltaBlockSize sweeps the rsync block size on the
// monitoring plane's append-only workload, showing the literal-bytes
// trade-off that justified the 2 KiB default.
func BenchmarkAblationDeltaBlockSize(b *testing.B) {
	old := make([]byte, 256<<10)
	for i := range old {
		old[i] = byte(i * 31)
	}
	tail := []byte("one appended sensor line at the end of the log\n")
	new := append(append([]byte(nil), old...), tail...)
	var out string
	for i := 0; i < b.N; i++ {
		out = ""
		for _, bs := range []int{256, 1024, delta.DefaultBlockSize, 8192, 32768} {
			_, literals, err := delta.Sync(old, new, bs)
			if err != nil {
				b.Fatal(err)
			}
			sig, err := delta.NewSignature(old, bs)
			if err != nil {
				b.Fatal(err)
			}
			sigBytes := len(sig.Marshal())
			out += fmt.Sprintf("  block %5d B: literals %4d B, signature %6d B\n", bs, literals, sigBytes)
		}
	}
	logOnce(b, "abl-delta", "delta block-size ablation (256 KiB log + 47 B append):\n"+out)
}
