package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"frostlab/internal/core"
	"frostlab/internal/simkernel"
	"frostlab/internal/stats"
	"frostlab/internal/timeseries"
)

// The Fig. 3/4 series a campaign builds cross-run envelopes for.
var envelopeSeries = []struct{ name, unit string }{
	{"outside_temp", "°C"},
	{"outside_rh", "%RH"},
	{"inside_temp", "°C"},
	{"inside_rh", "%RH"},
}

// RunSummary is the bounded-memory reduction of one replicate: scalar
// rates plus the envelope series resampled onto the campaign grid. The
// full *core.Results (every event, every raw sample) is dropped as soon
// as this is extracted, which is what lets a campaign of hundreds of
// full-winter runs aggregate in a few megabytes.
type RunSummary struct {
	Point string
	Rep   int
	Seed  string
	// Err is non-empty when the replicate failed (error, panic, or
	// cancellation); failed replicates carry no statistics.
	Err string
	// FromCheckpoint marks a replicate restored from the checkpoint
	// directory instead of re-run.
	FromCheckpoint bool
	// CheckpointErr is non-empty when the replicate ran but its
	// checkpoint write failed: its statistics count, but a resumed
	// campaign re-runs it.
	CheckpointErr string

	Tent, Control, Initial stats.Rate
	TotalCycles            uint64
	WrongHashes            int
	TentEnergyKWh          float64
	// AlertIncidents and AlertDigest carry the sim-time rules engine's
	// incident count and timeline hash; empty for runs without rules.
	AlertIncidents int
	AlertDigest    string
	// Series holds the envelope inputs resampled to the campaign grid:
	// at most ~140 points per series over the paper horizon, so hundreds
	// of retained replicates stay small.
	Series map[string]*timeseries.Series
}

// Summarize reduces a finished run to its campaign summary.
func Summarize(r *core.Results, grid time.Duration) (RunSummary, error) {
	if grid <= 0 {
		grid = DefaultEnvelopeGrid
	}
	rs := RunSummary{
		Seed:          r.Seed,
		Tent:          r.TentHostFailureRate,
		Control:       r.ControlHostFailureRate,
		Initial:       r.InitialHostFailureRate,
		TotalCycles:   r.TotalCycles,
		WrongHashes:   len(r.WrongHashes),
		TentEnergyKWh: float64(r.TentEnergy),
		Series:        make(map[string]*timeseries.Series, len(envelopeSeries)),
	}
	if r.Alerts != nil {
		rs.AlertIncidents = int(r.Alerts.IncidentsTotal)
		rs.AlertDigest = r.Alerts.Digest
	}
	for _, es := range envelopeSeries {
		var src *timeseries.Series
		switch es.name {
		case "outside_temp":
			src = r.OutsideTemp
		case "outside_rh":
			src = r.OutsideRH
		case "inside_temp":
			src = r.InsideTemp
		case "inside_rh":
			src = r.InsideRH
		}
		if src == nil {
			continue
		}
		res, err := src.Resample(grid)
		if err != nil {
			return rs, fmt.Errorf("campaign: resampling %s: %w", es.name, err)
		}
		rs.Series[es.name] = res
	}
	return rs, nil
}

// Envelope is the cross-run min/mean/max of one series: at every grid
// bucket, the extreme and average values any replicate produced there.
type Envelope struct {
	Name, Unit     string
	Min, Mean, Max *timeseries.Series
	// Runs is how many replicates contributed at least one bucket.
	Runs int
}

// envBucket accumulates one grid instant across replicates.
type envBucket struct {
	min, max, sum float64
	n             int
}

// PowerRow is one line of the power-analysis table: the per-arm sample
// size (and equivalent nine-host winters) needed to separate the pooled
// tent and control rates at 95 % significance with the given power.
type PowerRow struct {
	Power   float64
	PerArm  int
	Winters int
}

// PointAggregate pools every replicate of one sweep point.
type PointAggregate struct {
	Label             string
	Completed, Failed int
	// Errors samples the first few failure messages for the report.
	Errors []string

	// Tent, Control and Initial pool events and trials across replicates.
	Tent, Control, Initial stats.Rate
	// TentPerRep are the per-replicate tent rates in replicate order.
	TentPerRep []stats.Rate
	// TentMeanLo/Hi bootstrap a 95 % CI for the mean per-replicate tent
	// rate; HaveTentMean reports whether it could be computed.
	TentMeanLo, TentMeanHi float64
	HaveTentMean           bool
	// FisherP is the two-sided Fisher exact p for the pooled tent vs
	// control table.
	FisherP    float64
	HaveFisher bool

	// WrongHash pools wrong-md5sum incidents over workload cycles.
	WrongHash stats.Rate

	// AlertIncidents pools incident counts across replicates;
	// AlertDigest hashes the per-replicate timeline digests in replicate
	// order, so two campaigns agree iff every replicate's incident
	// timeline was byte-identical. Empty when no replicate ran rules.
	AlertIncidents int
	AlertDigest    string

	MeanEnergyKWh float64
	Envelopes     []Envelope
	Power         []PowerRow
	// WintersPerRep is the mean tent-arm size per replicate, the unit the
	// Winters column converts into.
	WintersPerRep int
}

// Summary is a finished campaign: one aggregate per sweep point, in sweep
// order. It deliberately carries no wall-clock or worker-count fields —
// the same spec and seed must aggregate byte-identically at any
// parallelism (see the determinism test).
type Summary struct {
	Seed       string
	Reps       int
	TotalRuns  int
	Completed  int
	Failed     int
	Checkpoint int
	// CheckpointFailed counts replicates whose checkpoint write failed.
	CheckpointFailed int
	Points           []*PointAggregate
}

// powerLevels is the power-analysis table's grid.
var powerLevels = []float64{0.50, 0.80, 0.90, 0.95}

// maxErrorSamples bounds how many failure messages an aggregate keeps.
const maxErrorSamples = 5

// aggregate pools one sweep point's replicates, which must already be in
// replicate order. Aggregation order is fixed by that ordering — never by
// worker completion order — so pooled floating-point sums are reproducible
// at any parallelism.
func (s *Spec) aggregate(label string, sums []RunSummary) *PointAggregate {
	agg := &PointAggregate{Label: label}
	env := make(map[string]map[int64]*envBucket, len(envelopeSeries))
	envRuns := make(map[string]int, len(envelopeSeries))
	var energySum float64
	alertHash := sha256.New()
	haveAlerts := false
	for _, rs := range sums {
		if rs.Err != "" {
			agg.Failed++
			if len(agg.Errors) < maxErrorSamples {
				agg.Errors = append(agg.Errors, fmt.Sprintf("rep %d: %s", rs.Rep, rs.Err))
			}
			continue
		}
		agg.Completed++
		agg.Tent = stats.PoolRates(agg.Tent, rs.Tent)
		agg.Control = stats.PoolRates(agg.Control, rs.Control)
		agg.Initial = stats.PoolRates(agg.Initial, rs.Initial)
		agg.TentPerRep = append(agg.TentPerRep, rs.Tent)
		agg.WrongHash = stats.PoolRates(agg.WrongHash, stats.Rate{
			Events: rs.WrongHashes, Trials: int(rs.TotalCycles),
		})
		energySum += rs.TentEnergyKWh
		if rs.AlertDigest != "" {
			haveAlerts = true
			agg.AlertIncidents += rs.AlertIncidents
			// Replicate order is fixed by the caller, so this combined
			// hash is parallelism-independent.
			fmt.Fprintf(alertHash, "%d:%s\n", rs.Rep, rs.AlertDigest)
		}
		for name, series := range rs.Series {
			if series.Len() == 0 {
				continue
			}
			buckets := env[name]
			if buckets == nil {
				buckets = make(map[int64]*envBucket)
				env[name] = buckets
			}
			envRuns[name]++
			// Points are in time order, so every pooled float sum
			// accumulates in a fixed order.
			for _, p := range series.Points() {
				key, v := p.At.UnixNano(), p.Value
				b := buckets[key]
				if b == nil {
					buckets[key] = &envBucket{min: v, max: v, sum: v, n: 1}
					continue
				}
				if v < b.min {
					b.min = v
				}
				if v > b.max {
					b.max = v
				}
				b.sum += v
				b.n++
			}
		}
	}
	if agg.Completed == 0 {
		return agg
	}
	agg.MeanEnergyKWh = energySum / float64(agg.Completed)
	if haveAlerts {
		agg.AlertDigest = hex.EncodeToString(alertHash.Sum(nil))
	}

	rng := simkernel.NewRNG(s.Seed + "/campaign-bootstrap/" + label)
	if lo, hi, err := stats.BootstrapRateMeanCI(rng.Stream("tent-rate"), agg.TentPerRep, s.BootstrapIters); err == nil {
		agg.TentMeanLo, agg.TentMeanHi = lo, hi
		agg.HaveTentMean = true
	}
	if p, err := stats.FisherExact(
		agg.Tent.Events, agg.Tent.Trials-agg.Tent.Events,
		agg.Control.Events, agg.Control.Trials-agg.Control.Events,
	); err == nil && agg.Tent.Trials > 0 && agg.Control.Trials > 0 {
		agg.FisherP = p
		agg.HaveFisher = true
	}

	for _, es := range envelopeSeries {
		buckets := env[es.name]
		if len(buckets) == 0 {
			continue
		}
		keys := make([]int64, 0, len(buckets))
		for k := range buckets {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		e := Envelope{
			Name: es.name, Unit: es.unit, Runs: envRuns[es.name],
			Min:  timeseries.New(es.name+"_min", es.unit),
			Mean: timeseries.New(es.name+"_mean", es.unit),
			Max:  timeseries.New(es.name+"_max", es.unit),
		}
		for _, k := range keys {
			at := time.Unix(0, k).UTC()
			b := buckets[k]
			_ = e.Min.Append(at, b.min)
			_ = e.Mean.Append(at, b.sum/float64(b.n))
			_ = e.Max.Append(at, b.max)
		}
		agg.Envelopes = append(agg.Envelopes, e)
	}

	agg.WintersPerRep = (agg.Tent.Trials + agg.Completed/2) / agg.Completed
	p1, p2 := agg.Tent.Value(), agg.Control.Value()
	if agg.Tent.Trials > 0 && agg.Control.Trials > 0 && p1 != p2 {
		for _, pw := range powerLevels {
			n, err := stats.RequiredTrialsTwoProportions(p1, p2, 0.05, pw)
			if err != nil {
				continue
			}
			row := PowerRow{Power: pw, PerArm: n}
			if agg.WintersPerRep > 0 {
				row.Winters = (n + agg.WintersPerRep - 1) / agg.WintersPerRep
			}
			agg.Power = append(agg.Power, row)
		}
	}
	return agg
}

// buildSummary orders every run summary deterministically (sweep-point
// order, then replicate index) and pools each point.
func (s *Spec) buildSummary(pts []point, sums []RunSummary, total int) *Summary {
	byPoint := make(map[string][]RunSummary, len(pts))
	for _, rs := range sums {
		byPoint[rs.Point] = append(byPoint[rs.Point], rs)
	}
	out := &Summary{Seed: s.Seed, Reps: s.Reps, TotalRuns: total}
	for _, rs := range sums {
		if rs.Err != "" {
			out.Failed++
		} else {
			out.Completed++
		}
		if rs.FromCheckpoint {
			out.Checkpoint++
		}
		if rs.CheckpointErr != "" {
			out.CheckpointFailed++
		}
	}
	for _, pt := range pts {
		group := byPoint[pt.label]
		sort.Slice(group, func(i, j int) bool { return group[i].Rep < group[j].Rep })
		out.Points = append(out.Points, s.aggregate(pt.label, group))
	}
	return out
}
