// Command bench is frostlab's repository benchmark. It runs one of five
// simulator workloads as a closed loop — one op after another, at most two
// worker goroutines — for a fixed wall-clock budget, checks every op's
// output, and prints its metrics by name with their units. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 33, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same ops run with outside-in instrumentation attached (a timing wrapper
// on the weather model, a metrics registry, spans around every call the
// benchmark makes) and the metrics are the per-layer ones. See README.md
// for the workloads, the metric definitions and how to run it.
package main

import (
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"frostlab/internal/core"
	"frostlab/internal/stats"
)

const (
	// workers is the load model's width: campaign workers, sharded shards
	// and GOMAXPROCS. Both engines' outputs are invariant to it.
	workers = 2
	// setupBatches is how many batches of engine constructions set-up
	// times; each batch constructs engines on fresh inputs until
	// setupBatchTime has passed, so even a sub-millisecond constructor is
	// timed over many calls.
	setupBatches   = 9
	setupBatchTime = 20 * time.Millisecond
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     string
	seconds  float64
	trace    bool
	traceOut string

	// maxUnits, days and anchor let tests run a workload's code path
	// quickly: at most maxUnits timed units (0 runs until seconds elapse),
	// a horizon of days instead of the workload's own, and the check
	// unit's expected digest in place of the recorded anchor.
	maxUnits int
	days     int
	anchor   string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	checkDigest string // the check unit's digest, for tests
}

// endToEnd lists the end-to-end metrics in print order.
var endToEnd = []string{"setup_s", "op_s_p50", "host_hours_per_s", "alloc_mb_per_op"}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.StringVar(&o.seed, "seed", core.ReferenceSeed, "input seed; an integer n stands for winter0910-r<n>")
	flag.Float64Var(&o.seconds, "seconds", 20, "wall-clock seconds of timed ops")
	trace := flag.Int("trace", 0, "1 attaches the per-layer instrumentation and reports per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with --trace 1, also write the spans as Chrome trace-event JSON to this file")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: --trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	o.trace = *trace == 1
	runtime.GOMAXPROCS(workers)

	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// resolveSeed maps integer seeds onto the paper's seed family,
// so seed 115 is the reference run; any other string is used as given.
func resolveSeed(s string) string {
	if _, err := strconv.ParseUint(s, 10, 64); err == nil {
		return "winter0910-r" + s
	}
	return s
}

// unitSeed is the seed of timed unit i: the run seed itself for unit 0,
// a derived one after it, so no two units share inputs.
func unitSeed(seed string, i int) string {
	if i == 0 {
		return seed
	}
	return fmt.Sprintf("%s/op/%d", seed, i)
}

// run executes one benchmark invocation, printing human-readable lines to
// out, and returns the result line. An error means no result could be
// produced (bad options, a workload that cannot be set up).
func run(o options, out io.Writer) (result, error) {
	w, ok := lookupWorkload(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	anchor := o.anchor
	if anchor == "" {
		if o.days != 0 {
			return result{}, fmt.Errorf("a reduced horizon needs an explicit anchor")
		}
		anchor = w.anchor
	}
	seed := resolveSeed(o.seed)
	days := o.days
	if days == 0 {
		days = w.days
	}
	fmt.Fprintf(out, "# workload %s  seed %s  trace %v  seconds %g\n", w.name, seed, o.trace, o.seconds)
	fmt.Fprintf(out, "# host %s\n", hostInfo())
	began := time.Now()

	// Every timed stretch — a set-up batch, a unit — sits between two
	// passes of the calibration kernel, and its seconds are scaled by the
	// reference kernel time over the mean of the two.
	cal := newCalibrator()
	cal.run() // first touch of its buffers
	calib := []float64{cal.run().Seconds()}
	bracket := func() float64 {
		calib = append(calib, cal.run().Seconds())
		n := len(calib)
		return 2 * refCalibSeconds / (calib[n-2] + calib[n-1])
	}

	setup := make([]float64, setupBatches)
	for k := range setup {
		n := 0
		t0 := time.Now()
		for n == 0 || time.Since(t0) < setupBatchTime {
			if err := w.setup(unitCtx{seed: fmt.Sprintf("%s/setup/%d/%d", seed, k, n), days: days}); err != nil {
				return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			n++
		}
		setup[k] = time.Since(t0).Seconds() / float64(n)
		setup[k] *= bracket()
	}

	// The check unit runs the reference seed untimed: it warms the
	// process up and pins the program's output to the recorded anchor.
	// In trace mode it runs instrumented, which also proves the
	// instrumentation leaves outputs untouched.
	check := runUnit(w, unitCtx{seed: core.ReferenceSeed, days: days, traced: o.trace})
	checkOK := check.err == nil && check.digest == anchor
	switch {
	case check.err != nil:
		fmt.Fprintf(out, "# check FAILED: reference seed %s: %v\n", core.ReferenceSeed, check.err)
	case !checkOK:
		fmt.Fprintf(out, "# check FAILED: reference seed %s digest %s, anchor %s\n", core.ReferenceSeed, check.digest, anchor)
	default:
		fmt.Fprintf(out, "# check ok: reference seed %s digest %s\n", core.ReferenceSeed, check.digest)
	}

	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	var (
		timed, plain      []unitResult // successful units; plain are trace mode's uninstrumented twins
		attempted, failed int
		ms0, ms1          runtime.MemStats
		allocBytes        uint64 // by the untraced units, not the calibration passes
		combined          = md5.New()
		deadline          = time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
		fail              = func(i int, err error) { fmt.Fprintf(out, "# unit %d FAILED: %v\n", i, err) }
		loopStart         = time.Now()
		unitsRun          int
	)
	calib = []float64{cal.run().Seconds()}
	for i := 0; ; i++ {
		if o.maxUnits > 0 && i >= o.maxUnits || o.maxUnits == 0 && i > 0 && !time.Now().Before(deadline) {
			break
		}
		unitsRun++
		s := unitSeed(seed, i)
		runtime.ReadMemStats(&ms0)
		u := runUnit(w, unitCtx{seed: s, days: days})
		runtime.ReadMemStats(&ms1)
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		attempted += w.opsPerUnit
		if !o.trace {
			u.scale = bracket()
			if u.err != nil {
				failed += w.opsPerUnit
				fail(i, u.err)
				continue
			}
			timed = append(timed, u)
			io.WriteString(combined, u.digest+"\n")
			continue
		}
		// Trace mode pairs every instrumented unit with an uninstrumented
		// twin on the same seed: the digests must agree, and the paired
		// times give the tracing overhead.
		t := runUnit(w, unitCtx{seed: s, days: days, traced: true, tr: tr})
		attempted += w.opsPerUnit
		t.scale = bracket()
		u.scale = t.scale
		switch {
		case u.err != nil:
			failed += 2 * w.opsPerUnit
			fail(i, u.err)
		case t.err != nil:
			failed += 2 * w.opsPerUnit
			fail(i, t.err)
		case u.digest != t.digest:
			failed += 2 * w.opsPerUnit
			fail(i, fmt.Errorf("traced digest %s differs from untraced %s", t.digest, u.digest))
		default:
			plain = append(plain, u)
			timed = append(timed, t)
			io.WriteString(combined, t.digest+"\n")
		}
	}
	loopWall := time.Since(loopStart)

	if !checkOK {
		// A program that gets the reference run wrong cannot be trusted
		// on any op, whatever the per-op invariants say.
		failed = attempted
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}, checkDigest: check.digest}
	fmt.Fprintf(out, "# units %d (%d ops attempted, %d failed) in %.2f s; combined digest %x\n",
		unitsRun, attempted, failed, loopWall.Seconds(), combined.Sum(nil))
	ops := opSeconds(timed, false)
	if len(ops) == 0 {
		fmt.Fprintf(out, "# no op succeeded; total wall %.2f s\n", time.Since(began).Seconds())
		res.Correct = false
		return res, nil
	}
	refOps := opSeconds(timed, true)
	var hostHours, refWall float64
	for _, u := range timed {
		hostHours += u.hostHours
		refWall += u.wall * u.scale
	}
	fmt.Fprintf(out, "# calibration kernel p50 %.6f s over %d passes (reference %g s)\n", median(calib), len(calib), refCalibSeconds)
	fmt.Fprintf(out, "# op p50 %.6f s measured, %.6f reference s; %s\n", median(ops), median(refOps), tail(refOps))
	fmt.Fprintf(out, "# peak RSS %.1f MB\n", peakRSSMB())

	if o.trace {
		res.Metrics = layerMetrics(timed)
		overhead := median(ops)/median(opSeconds(plain, false)) - 1
		res.Metrics["trace.overhead"] = metric{overhead, "ratio"}
		res.Metrics["host.calib_s"] = metric{median(calib), "s"}
		res.Metrics["go.rss_peak_mb"] = metric{peakRSSMB(), "MB"}
		printMetrics(out, res.Metrics, layerOrder())
		tr.writeSelfTimes(out)
		if o.traceOut != "" {
			if err := tr.writeChrome(o.traceOut); err != nil {
				return result{}, err
			}
			fmt.Fprintf(out, "# wrote %d spans to %s\n", len(tr.spans), o.traceOut)
		}
	} else {
		res.Metrics["setup_s"] = metric{median(setup), "s"}
		res.Metrics["op_s_p50"] = metric{median(refOps), "s"}
		res.Metrics["host_hours_per_s"] = metric{hostHours / refWall, "host-h/s"}
		res.Metrics["alloc_mb_per_op"] = metric{float64(allocBytes) / 1e6 / float64(attempted), "MB"}
		printMetrics(out, res.Metrics, endToEnd)
	}
	fmt.Fprintf(out, "# total wall %.2f s\n", time.Since(began).Seconds())
	return res, nil
}

// opSeconds concatenates the per-op seconds of units, in reference seconds
// when ref is set.
func opSeconds(units []unitResult, ref bool) []float64 {
	var ops []float64
	for _, u := range units {
		for _, s := range u.ops {
			if ref {
				s *= u.scale
			}
			ops = append(ops, s)
		}
	}
	return ops
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 { return stats.Quantile(sortedCopy(xs), q) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail reports the highest of p99, p90 and p75 that has at least ten ops
// beyond it, with the sample count, or says that none has.
func tail(ops []float64) string {
	s := sortedCopy(ops)
	for _, q := range []float64{0.99, 0.90, 0.75} {
		if beyond := len(s) - int(q*float64(len(s))); beyond >= 10 {
			return fmt.Sprintf("op tail: p%.0f %.6f s over n=%d ops (%d beyond it)", q*100, stats.Quantile(s, q), len(s), beyond)
		}
	}
	return fmt.Sprintf("op tail: n=%d ops leaves no percentile above p50 with 10 ops beyond it", len(s))
}

func printMetrics(out io.Writer, ms map[string]metric, order []string) {
	for _, name := range order {
		m := ms[name]
		fmt.Fprintf(out, "%-28s %16.6g %s\n", name, m.Value, m.Unit)
	}
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostInfo identifies the machine, so numbers from different hosts are
// never compared as if equal.
func hostInfo() string {
	return fmt.Sprintf("%s %s/%s nproc=%d GOMAXPROCS=%d cpu=%q",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func hexMD5(b []byte) string {
	sum := md5.Sum(b)
	return hex.EncodeToString(sum[:])
}
