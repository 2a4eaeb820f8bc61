package loadgen

import (
	"strconv"
	"strings"
	"time"

	"frostlab/internal/telemetry"
)

// PhaseReport summarises one phase's traffic. Accounting is exhaustive:
// Arrivals = OK + Rejected + Errors + Dropped + Unaccounted, and a run
// is only healthy when Unaccounted is zero for every phase — a request
// the driver cannot classify is a bug, not noise.
type PhaseReport struct {
	Phase       string  `json:"phase"`
	Arrivals    uint64  `json:"arrivals"`
	OK          uint64  `json:"ok"`
	Rejected    uint64  `json:"rejected"` // 503 from the admission gate
	Errors      uint64  `json:"errors"`   // any other non-2xx
	Dropped     uint64  `json:"dropped"`  // shed at the feed point, scrapers saturated
	Unaccounted int64   `json:"unaccounted"`
	CacheHits   uint64  `json:"cache_hits"`
	OfferedRate float64 `json:"offered_rate_rps"`

	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// RoundsReport summarises the collection plane's behaviour under load.
type RoundsReport struct {
	Rounds     int     `json:"rounds"`
	HostRounds int     `json:"host_rounds"`
	OK         int     `json:"ok"`
	Failed     int     `json:"failed"`
	Skipped    int     `json:"skipped"`
	Coverage   float64 `json:"coverage"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// PoolReport is read back off the run's own /metrics surface — the same
// numbers an operator would see — plus the live idle count.
type PoolReport struct {
	Dials   float64 `json:"dials"`
	Hits    float64 `json:"hits"`
	Stale   float64 `json:"stale"`
	Retired float64 `json:"retired"`
	Idle    int     `json:"idle"`
}

// IngestReport mirrors monitor.IngestStats.
type IngestReport struct {
	Offered  uint64 `json:"offered"`
	Shed     uint64 `json:"shed"`
	Done     uint64 `json:"done"`
	Failed   uint64 `json:"failed"`
	MaxDepth int    `json:"max_depth"`
}

// HealthzReport counts liveness probes issued concurrently with the
// load; any failure means the serving plane went dark under overload.
type HealthzReport struct {
	Probes   uint64 `json:"probes"`
	Failures uint64 `json:"failures"`
}

// GoroutinesReport brackets the run for leak detection.
type GoroutinesReport struct {
	Before int `json:"before"`
	After  int `json:"after"`
}

// Report is the full run result, serialised as BENCH_SERVE.json.
type Report struct {
	Seed        string           `json:"seed"`
	Agents      int              `json:"agents"`
	Scrapers    int              `json:"scrapers"`
	SustainRate float64          `json:"sustain_rate_rps"`
	SpikeRate   float64          `json:"spike_rate_rps"`
	Phases      []PhaseReport    `json:"phases"`
	RoundsPlane RoundsReport     `json:"rounds"`
	Pool        PoolReport       `json:"pool"`
	Ingest      IngestReport     `json:"ingest"`
	Healthz     HealthzReport    `json:"healthz"`
	Goroutines  GoroutinesReport `json:"goroutines"`
	MirrorBytes int              `json:"mirror_bytes"`
	TotalMs     float64          `json:"total_ms"`
}

// Unaccounted returns the sum of per-phase unaccounted requests.
func (r *Report) Unaccounted() int64 {
	var n int64
	for _, p := range r.Phases {
		n += p.Unaccounted
	}
	return n
}

// PhaseByName returns the named phase report (nil if absent).
func (r *Report) PhaseByName(name string) *PhaseReport {
	for i := range r.Phases {
		if r.Phases[i].Phase == name {
			return &r.Phases[i]
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricValue extracts one un-labelled sample from a registry's
// Prometheus text exposition. Reading the rendered surface (rather than
// private counters) keeps the report honest: it can only contain what
// operators can scrape.
func metricValue(reg *telemetry.Registry, name string) float64 {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return 0
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		field, val, ok := strings.Cut(line, " ")
		if !ok || field != name {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return 0
		}
		return v
	}
	return 0
}
