// collectord is the monitoring host of §3.5 as a real network daemon: it
// periodically dials each node agent over TCP, authenticates with the
// host's pre-shared key (the SSH public-key stand-in), and pulls new log
// content with the rsync delta algorithm.
//
// Unlike the paper's collection loop — which §4.2.1 shows losing data to
// crashed hosts and stalled sensors with no record beyond a hole in the
// series — this daemon is chaos-hardened: every read and write carries a
// deadline, failed hosts are retried with exponential backoff inside the
// round, a per-host circuit breaker stops it hammering a crashed agent,
// and a gap ledger accounts for every host-round that produced no data.
// SIGINT/SIGTERM drain the in-flight round, flush the mirror directory,
// and exit 0.
//
// Usage:
//
//	collectord -hosts 01=127.0.0.1:7701,02=127.0.0.1:7702 \
//	           [-keyseed winter0910] [-every 20m] [-rounds 0] [-dir mirror/]
//	           [-timeout 10s] [-round-timeout 5m] [-retries 3] [-backoff 2s]
//	           [-breaker-trip 3] [-breaker-cooldown 3] [-http 127.0.0.1:8080]
//	           [-debug-addr 127.0.0.1:6060] [-mirror-retain 0] [-tsdb-dir tsdb/]
//	           [-pool] [-ingest-queue 4] [-max-inflight 64] [-scrape-cache 1s]
//	           [-rules default|off|path/to/rules.txt]
//
// The dashboard (-http) serves /metrics and /buildinfo alongside the
// status endpoints; -debug-addr opens a second listener with /metrics,
// /healthz, /buildinfo, and net/http/pprof for live profiling. The
// dashboard is overload-hardened: -max-inflight bounds concurrent
// requests (the rest get 503 + Retry-After; /healthz always answers),
// and -scrape-cache coalesces identical scrape reads within a round.
// -pool keeps authenticated agent sessions alive across rounds, and
// -ingest-queue bounds the post-round flush backlog, shedding the
// oldest round (counted in frostlab_ingest_shed_total) when the disk
// cannot keep up.
//
// Every numeric sample the mirrored logs carry is additionally parsed
// into an embedded compressed time-series store (internal/tsdb), served
// on the dashboard's /api/series endpoints. -mirror-retain caps each
// mirrored file's raw bytes (oldest lines evicted first; the compressed
// store keeps the full history), and -tsdb-dir checkpoints the store to
// <dir>/samples.ftsb after every round and restores it at startup.
//
// A deterministic rules engine (internal/rules) evaluates alert and
// recording rules over the sample store once per round, on wall-clock
// time. -rules selects the ruleset: "default" ships staleness, coverage,
// shed, breaker, and frost-envelope alerts; "off" disables the engine; a
// path loads a rule file. Alert state is served on /api/alerts (which
// bypasses the admission gate, like /healthz), /api/rules and
// /api/incidents, exported as frostlab_rules_* / frostlab_alerts_*
// metrics, and incident transitions ride the -tsdb-dir checkpoint as
// ordinary samples, so the incident timeline survives restarts.
//
// Keys are derived as SHA-256(keyseed/psk/<hostID>) and must match the
// node agents' -keyseed.
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"frostlab/internal/dash"
	"frostlab/internal/monitor"
	"frostlab/internal/rules"
	"frostlab/internal/telemetry"
	"frostlab/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "collectord:", err)
		os.Exit(1)
	}
}

// derivePSK matches nodeagent's key derivation.
func derivePSK(keyseed, hostID string) []byte {
	sum := sha256.Sum256([]byte(keyseed + "/psk/" + hostID))
	return sum[:]
}

func run() error {
	hostsFlag := flag.String("hosts", "", "comma-separated hostID=addr pairs")
	keyseed := flag.String("keyseed", "winter0910", "pre-shared key derivation seed")
	keyfile := flag.String("keystore", "", "keystore file of hostID hexkey lines (overrides -keyseed)")
	every := flag.Duration("every", 20*time.Minute, "collection cadence")
	rounds := flag.Int("rounds", 0, "stop after N rounds (0 = forever)")
	dir := flag.String("dir", "", "write mirrored logs into this directory after each round")
	httpAddr := flag.String("http", "", "serve the status dashboard on this address (e.g. 127.0.0.1:8080)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-read/-write deadline on agent connections")
	roundTimeout := flag.Duration("round-timeout", 5*time.Minute, "hard deadline for one whole round (0 = none)")
	retries := flag.Int("retries", 3, "max collection attempts per host per round")
	backoff := flag.Duration("backoff", 2*time.Second, "base retry backoff (doubles per attempt, ±25% jitter)")
	breakerTrip := flag.Int("breaker-trip", 3, "consecutive failed rounds before a host's breaker opens (0 = disabled)")
	breakerCooldown := flag.Int("breaker-cooldown", 3, "rounds an open breaker skips before a half-open probe")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /buildinfo and net/http/pprof on this address")
	mirrorRetain := flag.Int("mirror-retain", 0, "cap each mirrored file at this many raw bytes, evicting oldest lines first (0 = unbounded)")
	tsdbDir := flag.String("tsdb-dir", "", "checkpoint the compressed sample store into this directory after each round and restore it at startup")
	pool := flag.Bool("pool", true, "keep authenticated agent sessions alive across rounds instead of redialling")
	ingestQueue := flag.Int("ingest-queue", 4, "bound on pending post-round flush/checkpoint jobs; the oldest round is shed (and counted) when full")
	maxInflight := flag.Int("max-inflight", 64, "dashboard admission watermark: concurrent requests past it get 503 + Retry-After")
	scrapeCache := flag.Duration("scrape-cache", time.Second, "cache hot dashboard scrape responses for this long within a round (0 = off)")
	rulesFlag := flag.String("rules", "default", `alert/recording ruleset: "default", "off", or a rule file path`)
	flag.Parse()

	if *hostsFlag == "" {
		return fmt.Errorf("-hosts is required")
	}
	addrFor := make(map[string]string)
	var ids []string
	for _, pair := range strings.Split(*hostsFlag, ",") {
		id, addr, ok := strings.Cut(pair, "=")
		if !ok || id == "" || addr == "" {
			return fmt.Errorf("bad -hosts entry %q (want id=addr)", pair)
		}
		addrFor[id] = addr
		ids = append(ids, id)
	}
	keyFor := func(id string) ([]byte, error) { return derivePSK(*keyseed, id), nil }
	if *keyfile != "" {
		f, err := os.Open(*keyfile)
		if err != nil {
			return err
		}
		keys, err := wire.LoadKeystore(f)
		f.Close()
		if err != nil {
			return err
		}
		keyFor = keys.Lookup
	}

	// SIGINT/SIGTERM cancel the context: the in-flight round is drained
	// (its watchdogs tear down blocked connections), the mirror dir is
	// flushed one last time, and the daemon exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dialer := &net.Dialer{Timeout: 10 * time.Second}
	samples := monitor.NewSampleDB()
	coll := monitor.NewCollector(0).WithSamples(samples)
	coll.SetRetention(*mirrorRetain)
	if *tsdbDir != "" {
		if err := restoreSamples(samples, *tsdbDir); err != nil {
			return err
		}
	}
	fc, err := monitor.NewFleetCollector(coll, monitor.FleetConfig{
		Hosts: ids,
		Dial: func(ctx context.Context, hostID string, round, attempt int) (net.Conn, error) {
			return dialer.DialContext(ctx, "tcp", addrFor[hostID])
		},
		KeyFor: keyFor,
		Retry: monitor.RetryPolicy{
			MaxAttempts: *retries,
			BaseBackoff: *backoff,
			Multiplier:  2,
			MaxBackoff:  30 * time.Second,
			JitterFrac:  0.5,
		},
		Breaker:      monitor.BreakerConfig{Trip: *breakerTrip, Cooldown: *breakerCooldown},
		PhaseTimeout: *timeout,
		RoundTimeout: *roundTimeout,
		Jitter:       monitor.DeterministicJitter(*keyseed),
		Pool:         poolConfig(*pool),
	})
	if err != nil {
		return err
	}
	// Post-round flush and checkpoint work runs behind a bounded queue:
	// a slow disk can no longer stretch the collection cadence, and when
	// it falls behind, the oldest round's ingestion is shed — loudly.
	queue := monitor.NewIngestQueue(*ingestQueue)
	queue.OnShed(func(job monitor.IngestJob) {
		fmt.Fprintf(os.Stderr, "ingest queue full: shed round %d flush (see frostlab_ingest_shed_total)\n", job.Round)
	})
	reg := telemetry.NewRegistry()
	fc.Instrument(reg)
	queue.Instrument(reg)
	reg.GaugeFunc("frostlab_mirror_bytes",
		"Raw log bytes currently held across all host mirrors (bounded by -mirror-retain).",
		func() float64 { return float64(coll.MirrorBytes()) })
	reg.GaugeFunc("frostlab_tsdb_samples",
		"Samples stored in the compressed sample store.",
		func() float64 { return float64(samples.Store().Stats().Samples) })
	reg.GaugeFunc("frostlab_tsdb_series",
		"Series registered in the compressed sample store.",
		func() float64 { return float64(samples.Store().Stats().Series) })
	reg.GaugeFunc("frostlab_tsdb_compressed_bytes",
		"Compressed bytes held by the sample store (blocks plus heads).",
		func() float64 { return float64(samples.Store().Stats().CompressedBytes) })
	reg.GaugeFunc("frostlab_tsdb_dropped_samples",
		"Parsed samples the store rejected (out-of-order timestamps).",
		func() float64 { return float64(samples.Dropped()) })

	eng, err := buildRules(*rulesFlag, samples, fc, queue, ids)
	if err != nil {
		return err
	}
	if eng != nil {
		// Replay any checkpointed incident transitions before the first
		// eval, so a restart resumes firing alerts instead of re-opening
		// them as new incidents.
		if err := eng.Restore(); err != nil {
			fmt.Fprintf(os.Stderr, "rules: restoring incident state: %v\n", err)
		}
		eng.Instrument(reg)
	}

	var dashSrv *dash.Server
	if *httpAddr != "" {
		dashSrv = dash.NewServer(coll, ids, time.Now()).
			WithLedger(fc.Ledger()).
			WithRules(eng).
			WithAdmission(*maxInflight, *backoff).
			WithScrapeCache(*scrapeCache).
			WithTelemetry(reg)
		go func() {
			if err := telemetry.NewServer(*httpAddr, dashSrv.Handler()).ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "dashboard: %v\n", err)
			}
		}()
		fmt.Printf("status dashboard on http://%s/\n", *httpAddr)
	}
	if *debugAddr != "" {
		go func() {
			if err := telemetry.NewServer(*debugAddr, telemetry.DebugMux(reg, true)).ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "debug listener: %v\n", err)
			}
		}()
		fmt.Printf("telemetry + pprof on http://%s/\n", *debugAddr)
	}

	for round := 1; *rounds == 0 || round <= *rounds; round++ {
		rep := fc.Round(ctx, time.Now())
		logRound(rep)
		// Flush and checkpoint asynchronously behind the bounded queue;
		// the next round starts on schedule whatever the disk is doing.
		queue.Offer(monitor.IngestJob{Round: round, Run: func() error {
			if *dir != "" {
				if err := flushMirrors(coll, ids, *dir); err != nil {
					return fmt.Errorf("flush: %w", err)
				}
			}
			if *tsdbDir != "" {
				if err := checkpointSamples(samples, *tsdbDir); err != nil {
					return fmt.Errorf("checkpoint: %w", err)
				}
			}
			return nil
		}})
		// Sample ingestion happens synchronously inside fc.Round (only
		// flush/checkpoint is queued), so an eval here sees the round's
		// data the moment it lands — wall-clock MTTD is one cadence, not
		// two.
		if eng != nil {
			eng.Eval(time.Now())
		}
		if dashSrv != nil {
			dashSrv.InvalidateScrapeCache()
		}
		if ctx.Err() != nil {
			break
		}
		if *rounds != 0 && round == *rounds {
			break
		}
		if err := sleepCtx(ctx, *every); err != nil {
			break
		}
	}

	// Shutdown: retire pooled keepalives with a clean bye, drain the
	// ingest queue, then run one final synchronous flush so the on-disk
	// state reflects the last round even if its queued job was shed.
	fc.Close()
	queue.Close()
	if st := queue.Stats(); st.Shed > 0 {
		fmt.Fprintf(os.Stderr, "ingest queue shed %d of %d rounds (disk could not keep up)\n", st.Shed, st.Offered)
	}
	if *dir != "" {
		if err := flushMirrors(coll, ids, *dir); err != nil {
			return err
		}
	}
	if *tsdbDir != "" {
		if err := checkpointSamples(samples, *tsdbDir); err != nil {
			return err
		}
	}
	fmt.Print(fc.Ledger().String())
	if ctx.Err() != nil {
		fmt.Println("collectord: signal received; drained and flushed, exiting")
	}
	return nil
}

func logRound(rep monitor.RoundReport) {
	var literal, total int
	for _, h := range rep.Hosts {
		literal += h.LiteralBytes
		total += h.TotalBytes
		switch h.Status {
		case monitor.StatusFailed:
			fmt.Fprintf(os.Stderr, "round %d host %s: failed after %d attempts: %s (breaker %s)\n",
				rep.Round, h.HostID, h.Attempts, h.Err, h.Breaker)
		case monitor.StatusSkipped:
			fmt.Fprintf(os.Stderr, "round %d host %s: skipped, breaker open\n", rep.Round, h.HostID)
		}
	}
	saved := 0.0
	if total > 0 {
		saved = (1 - float64(literal)/float64(total)) * 100
	}
	fmt.Printf("round %d complete: %d/%d hosts (coverage %.2f), %d literal bytes (%.1f%% saved)\n",
		rep.Round, rep.Collected(), len(rep.Hosts), rep.Coverage(), literal, saved)
}

// buildRules maps the -rules flag onto a configured engine, or nil for
// "off". The live gauges bind the default ruleset's $-names to the
// collection plane: coverage, shed rounds, stale pooled connections, and
// open breakers are all observable without a sample series.
func buildRules(sel string, samples *monitor.SampleDB, fc *monitor.FleetCollector, queue *monitor.IngestQueue, ids []string) (*rules.Engine, error) {
	var set *rules.RuleSet
	switch sel {
	case "off":
		return nil, nil
	case "default":
		set = rules.Default()
	default:
		data, err := os.ReadFile(sel)
		if err != nil {
			return nil, fmt.Errorf("-rules: %w", err)
		}
		set, err = rules.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("-rules %s: %w", sel, err)
		}
	}
	eng := rules.NewEngine(set, samples.Store()).
		Live("coverage", func() float64 { return fc.Ledger().Coverage() }).
		Live("ingest_shed", func() float64 { return float64(queue.Stats().Shed) }).
		Live("pool_stale", func() float64 { return float64(fc.PoolStaleTotal()) }).
		Live("breakers_open", func() float64 {
			open := 0
			for _, id := range ids {
				if fc.BreakerState(id) == monitor.BreakerOpen {
					open++
				}
			}
			return float64(open)
		})
	return eng, nil
}

// poolConfig maps the -pool flag onto FleetConfig.Pool.
func poolConfig(enabled bool) *monitor.PoolConfig {
	if !enabled {
		return nil
	}
	return &monitor.PoolConfig{}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// segmentName is the sample store's checkpoint file within -tsdb-dir.
const segmentName = "samples.ftsb"

// checkpointSamples writes the store as a segment, atomically: a torn
// write leaves the previous checkpoint intact.
func checkpointSamples(db *monitor.SampleDB, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, segmentName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := db.Store().WriteSegment(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// Sync before the rename, so a crash cannot publish a file whose
	// bytes never reached the disk.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, segmentName))
}

// restoreSamples loads the checkpoint segment if one exists.
func restoreSamples(db *monitor.SampleDB, dir string) error {
	f, err := os.Open(filepath.Join(dir, segmentName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	if err := db.Store().ReadSegment(f); err != nil {
		return fmt.Errorf("restoring sample checkpoint: %w", err)
	}
	st := db.Store().Stats()
	fmt.Printf("restored sample checkpoint: %d series, %d samples, %d compressed bytes\n",
		st.Series, st.Samples, st.CompressedBytes)
	return nil
}

func flushMirrors(coll *monitor.Collector, ids []string, dir string) error {
	for _, id := range ids {
		if err := dumpMirror(coll, id, dir); err != nil {
			return err
		}
	}
	return nil
}

func dumpMirror(coll *monitor.Collector, hostID, dir string) error {
	m := coll.Mirror(hostID)
	base := filepath.Join(dir, hostID)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	for _, name := range m.Names() {
		if err := os.WriteFile(filepath.Join(base, name), m.Get(name), 0o644); err != nil {
			return err
		}
	}
	return nil
}
