package dash

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"frostlab/internal/monitor"
	"frostlab/internal/rules"
	"frostlab/internal/telemetry"
	"frostlab/internal/wire"
)

// PlaneConfig is what differs between deployments of the serving plane.
type PlaneConfig struct {
	// Hosts is the fleet roster.
	Hosts []string
	// Dial opens the transport to a host.
	Dial monitor.DialFunc
	// KeyFor resolves a host's pre-shared key.
	KeyFor func(hostID string) ([]byte, error)
	// NonceFor supplies the collector's handshake nonces; nil uses
	// crypto/rand.
	NonceFor func(hostID string, round, attempt int) wire.Nonce
	// JitterSeed seeds the retry backoff's jitter draws.
	JitterSeed string
	// Start is the time the dashboard reports the plane up since.
	Start time.Time
	// MirrorRetain caps each mirrored file's raw bytes (0 = unbounded).
	MirrorRetain int
	// Rules is the alert and recording rule set; nil runs no engine.
	Rules *rules.RuleSet
	// Restore, when set, loads a checkpoint into the sample store before
	// the rules engine replays its incidents from it.
	Restore func(*monitor.SampleDB) error
	// Persist, when set, runs behind the ingest queue after every round.
	Persist func(*monitor.Collector) error
	// StaleConn, when set, is the keepalive pool's fault hook
	// (monitor.PoolConfig.Fault).
	StaleConn func(hostID string, round int) bool
	// MaxInflight is the dashboard's admission watermark (0 = 64).
	MaxInflight int
}

// Plane is the monitoring host's serving plane: the fleet collector with
// its keepalive pool, the sample store, the bounded ingest queue, the
// rules engine and the dashboard, all instrumented on one registry.
type Plane struct {
	fleet   *monitor.FleetCollector
	queue   *monitor.IngestQueue
	reg     *telemetry.Registry
	rules   *rules.Engine
	srv     *Server
	persist func(*monitor.Collector) error
}

// NewPlane builds the serving plane. Close it to stop its ingest worker.
func NewPlane(cfg PlaneConfig) (*Plane, error) {
	samples := monitor.NewSampleDB()
	coll := monitor.NewCollector(0).WithSamples(samples)
	coll.SetRetention(cfg.MirrorRetain)
	if cfg.Restore != nil {
		if err := cfg.Restore(samples); err != nil {
			return nil, err
		}
	}
	// Everything but the transport is a constant of the plane,
	// collectord's settings written once: 3 attempts per host and round,
	// backing off from 2 s, doubling, to at most 30 s, jittered by ±25 %;
	// a breaker that opens after 3 failed rounds and probes after skipping
	// 3; 10 s on every agent read or write and 5 min on a round; 32 hosts
	// collected in parallel over kept-alive sessions.
	fc, err := monitor.NewFleetCollector(coll, monitor.FleetConfig{
		Hosts:        cfg.Hosts,
		Dial:         cfg.Dial,
		KeyFor:       cfg.KeyFor,
		NonceFor:     cfg.NonceFor,
		Retry:        monitor.RetryPolicy{MaxAttempts: 3, BaseBackoff: 2 * time.Second, Multiplier: 2, MaxBackoff: 30 * time.Second, JitterFrac: 0.5},
		Breaker:      monitor.BreakerConfig{Trip: 3, Cooldown: 3},
		PhaseTimeout: 10 * time.Second,
		RoundTimeout: 5 * time.Minute,
		Jitter:       monitor.DeterministicJitter(cfg.JitterSeed),
		Concurrency:  32,
		Pool:         &monitor.PoolConfig{Fault: cfg.StaleConn},
	})
	if err != nil {
		return nil, err
	}
	p := &Plane{fleet: fc, reg: telemetry.NewRegistry(), persist: cfg.Persist}
	if cfg.Rules != nil {
		// The live gauges bind the default rule set's $-names to the
		// collection plane.
		p.rules = rules.NewEngine(cfg.Rules, samples.Store()).
			Live("coverage", func() float64 { return fc.Ledger().Coverage() }).
			Live("ingest_shed", func() float64 { return float64(p.queue.Stats().Shed) }).
			Live("pool_stale", func() float64 { return float64(fc.PoolStaleTotal()) }).
			Live("breakers_open", func() float64 {
				open := 0
				for _, id := range cfg.Hosts {
					if fc.BreakerState(id) == monitor.BreakerOpen {
						open++
					}
				}
				return float64(open)
			})
		// Replay the checkpointed incident transitions before the first
		// eval, so a restart resumes firing alerts instead of opening
		// them as new incidents.
		if err := p.rules.Restore(); err != nil {
			return nil, fmt.Errorf("rules: restoring incident state: %w", err)
		}
		p.rules.Instrument(p.reg)
	}
	// 4 rounds' persistence queue up before the oldest is shed.
	p.queue = monitor.NewIngestQueue(4)
	fc.Instrument(p.reg)
	p.queue.Instrument(p.reg)
	p.reg.GaugeFunc("frostlab_mirror_bytes",
		"Raw log bytes currently held across all host mirrors (bounded by -mirror-retain).",
		func() float64 { return float64(coll.MirrorBytes()) })
	p.reg.GaugeFunc("frostlab_tsdb_samples",
		"Samples stored in the compressed sample store.",
		func() float64 { return float64(samples.Store().Stats().Samples) })
	p.reg.GaugeFunc("frostlab_tsdb_series",
		"Series registered in the compressed sample store.",
		func() float64 { return float64(samples.Store().Stats().Series) })
	p.reg.GaugeFunc("frostlab_tsdb_compressed_bytes",
		"Compressed bytes held by the sample store (blocks plus heads).",
		func() float64 { return float64(samples.Store().Stats().CompressedBytes) })
	p.reg.GaugeFunc("frostlab_tsdb_dropped_samples",
		"Parsed samples the store rejected (out-of-order timestamps).",
		func() float64 { return float64(samples.Dropped()) })

	// The dashboard tells a request past the watermark to retry after 1 s,
	// when the 1 s scrape cache has turned over.
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	p.srv = NewServer(coll, cfg.Hosts, cfg.Start).
		WithLedger(fc.Ledger()).
		WithRules(p.rules).
		WithAdmission(cfg.MaxInflight, time.Second).
		WithScrapeCache(time.Second).
		WithTelemetry(p.reg)
	return p, nil
}

// Round runs one collection round at time at: it collects the fleet,
// hands the round's persistence to the ingest queue, evaluates the rules
// at at, and invalidates the scrape cache. Samples are ingested inside
// the collection, so the eval sees the round's data: an alert's
// detection lags by one round, not two.
func (p *Plane) Round(ctx context.Context, at time.Time) monitor.RoundReport {
	rep := p.fleet.Round(ctx, at)
	job := monitor.IngestJob{Round: rep.Round}
	if p.persist != nil {
		coll := p.fleet.Collector()
		job.Run = func() error { return p.persist(coll) }
	}
	p.queue.Offer(job)
	if p.rules != nil {
		p.rules.Eval(at)
	}
	p.srv.InvalidateScrapeCache()
	return rep
}

// Close retires the pooled keepalive sessions with a clean bye and
// drains the ingest queue. Round must not be running.
func (p *Plane) Close() {
	p.fleet.Close()
	p.queue.Close()
}

// Handler returns the dashboard's handler.
func (p *Plane) Handler() http.Handler { return p.srv.Handler() }

// Registry returns the registry the plane is instrumented on.
func (p *Plane) Registry() *telemetry.Registry { return p.reg }

// Fleet returns the fleet collector.
func (p *Plane) Fleet() *monitor.FleetCollector { return p.fleet }

// IngestStats returns the ingest queue's accounting.
func (p *Plane) IngestStats() monitor.IngestStats { return p.queue.Stats() }
