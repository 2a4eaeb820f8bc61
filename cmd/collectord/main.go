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
//	           [-keyseed winter0910 | -keystore keys.txt] [-every 20m]
//	           [-dir mirror/] [-tsdb-dir tsdb/] [-mirror-retain 0]
//	           [-http 127.0.0.1:8080] [-debug-addr 127.0.0.1:6060]
//	           [-rules default|off|path/to/rules.txt]
//
// The daemon runs internal/dash's serving plane (dash.Plane): the
// collector with its keepalive pool, the compressed sample store behind
// /api/series, the bounded ingest queue, the rules engine and the
// admission-gated dashboard. Its retry, breaker, deadline, queue and
// admission settings are constants of the plane (DESIGN.md § serving
// model). -http serves the dashboard; -debug-addr serves /metrics,
// /healthz, /buildinfo and net/http/pprof. Both are bound before the
// first round, so a busy or malformed address fails the start.
//
// -dir dumps the mirrored logs after every round. -mirror-retain caps
// each mirrored file's raw bytes (oldest lines evicted first; the sample
// store keeps the full history). -tsdb-dir checkpoints the sample store,
// and with it the rules engine's incident transitions, to
// <dir>/samples.ftsb after every round and restores it at startup. -rules
// selects the rule set: "default" (staleness, coverage, shed, breaker and
// frost-envelope alerts), "off", or a rule file.
//
// Keys are derived as SHA-256(keyseed/psk/<hostID>) and must match the
// node agents' -keyseed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
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
	// SIGINT/SIGTERM cancel the context: the in-flight round is drained
	// (its watchdogs tear down blocked connections), the mirror dir is
	// flushed one last time, and the daemon exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(exitCode(err))
}

// exitCode prints err on stderr, unless the FlagSet has already printed
// it with the usage, and returns the exit status: 0 after success or -h.
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if !errors.As(err, new(flagError)) {
		fmt.Fprintln(os.Stderr, "collectord:", err)
	}
	return 1
}

// flagError is a parse error the FlagSet has already reported.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

// run collects until ctx is cancelled, then drains, flushes and returns.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("collectord", flag.ContinueOnError)
	hostsFlag := fs.String("hosts", "", "comma-separated hostID=addr pairs")
	keyseed := fs.String("keyseed", "winter0910", "pre-shared key derivation seed")
	keyfile := fs.String("keystore", "", "keystore file of hostID hexkey lines (overrides -keyseed)")
	every := fs.Duration("every", 20*time.Minute, "collection cadence")
	dir := fs.String("dir", "", "write mirrored logs into this directory after each round")
	httpAddr := fs.String("http", "", "serve the status dashboard on this address (e.g. 127.0.0.1:8080)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz, /buildinfo and net/http/pprof on this address")
	mirrorRetain := fs.Int("mirror-retain", 0, "cap each mirrored file at this many raw bytes, evicting oldest lines first (0 = unbounded)")
	tsdbDir := fs.String("tsdb-dir", "", "checkpoint the compressed sample store into this directory after each round and restore it at startup")
	rulesFlag := fs.String("rules", "default", `alert/recording ruleset: "default", "off", or a rule file path`)
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	if *every <= 0 {
		return fmt.Errorf("-every must be positive, got %v", *every)
	}
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
	keyFor := func(id string) ([]byte, error) { return wire.DerivePSK(*keyseed, id), nil }
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
	set, err := loadRules(*rulesFlag)
	if err != nil {
		return err
	}
	persist := func(coll *monitor.Collector) error {
		for _, id := range ids {
			if *dir != "" {
				if err := dumpMirror(coll, id, *dir); err != nil {
					return fmt.Errorf("flush: %w", err)
				}
			}
		}
		if *tsdbDir != "" {
			if err := checkpointSamples(coll.Samples(), *tsdbDir); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
		return nil
	}

	dialer := &net.Dialer{Timeout: 10 * time.Second}
	plane, err := dash.NewPlane(dash.PlaneConfig{
		Hosts: ids,
		Dial: func(ctx context.Context, hostID string, round, attempt int) (net.Conn, error) {
			return dialer.DialContext(ctx, "tcp", addrFor[hostID])
		},
		KeyFor:       keyFor,
		JitterSeed:   *keyseed,
		Start:        time.Now(),
		MirrorRetain: *mirrorRetain,
		Rules:        set,
		Restore: func(db *monitor.SampleDB) error {
			return restoreSamples(stdout, db, *tsdbDir)
		},
		Persist: persist,
	})
	if err != nil {
		return err
	}
	for _, l := range []struct {
		addr, name string
		h          http.Handler
	}{
		{*httpAddr, "status dashboard", plane.Handler()},
		{*debugAddr, "telemetry + pprof", telemetry.DebugMux(plane.Registry(), true)},
	} {
		if l.addr == "" {
			continue
		}
		bound, stop, err := serve(l.addr, l.h)
		if err != nil {
			plane.Close()
			return fmt.Errorf("%s: %w", l.name, err)
		}
		defer stop()
		fmt.Fprintf(stdout, "%s on http://%s/\n", l.name, bound)
	}

	var shed uint64
	for {
		logRound(stdout, plane.Round(ctx, time.Now()))
		// A flush is shed, oldest first, when the disk cannot keep up.
		if st := plane.IngestStats(); st.Shed > shed {
			fmt.Fprintf(os.Stderr, "ingest queue full: shed %d round flush(es) (see frostlab_ingest_shed_total)\n", st.Shed-shed)
			shed = st.Shed
		}
		if monitor.SleepContext(ctx, *every) != nil {
			break
		}
	}

	// Shutdown: retire pooled keepalives with a clean bye, drain the
	// ingest queue, then run one final synchronous flush so the on-disk
	// state reflects the last round even if its queued job was shed.
	plane.Close()
	if st := plane.IngestStats(); st.Shed > 0 {
		fmt.Fprintf(os.Stderr, "ingest queue shed %d of %d rounds (disk could not keep up)\n", st.Shed, st.Offered)
	}
	if err := persist(plane.Fleet().Collector()); err != nil {
		return err
	}
	fmt.Fprint(stdout, plane.Fleet().Ledger().String())
	fmt.Fprintln(stdout, "collectord: signal received; drained and flushed, exiting")
	return nil
}

// serve binds addr and serves h on it until stop, which shuts the
// server down and waits for it.
func serve(addr string, h http.Handler) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := telemetry.NewServer(addr, h)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "collectord:", err)
		}
	}()
	return ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

func logRound(stdout io.Writer, rep monitor.RoundReport) {
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
	fmt.Fprintf(stdout, "round %d complete: %d/%d hosts (coverage %.2f), %d literal bytes (%.1f%% saved)\n",
		rep.Round, rep.Collected(), len(rep.Hosts), rep.Coverage(), literal, saved)
}

// loadRules maps the -rules flag onto a rule set, or nil for "off".
func loadRules(sel string) (*rules.RuleSet, error) {
	switch sel {
	case "off":
		return nil, nil
	case "default":
		return rules.Default(), nil
	}
	data, err := os.ReadFile(sel)
	if err != nil {
		return nil, fmt.Errorf("-rules: %w", err)
	}
	set, err := rules.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("-rules %s: %w", sel, err)
	}
	return set, nil
}

// segmentName is the sample store's checkpoint file within -tsdb-dir.
const segmentName = "samples.ftsb"

// checkpointSamples writes the store as a segment, atomically: a torn
// write leaves the previous checkpoint intact.
func checkpointSamples(db *monitor.SampleDB, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, segmentName), db.Store().WriteSegment)
}

// writeFileAtomic replaces path with what write produces. It writes a
// temporary file beside path, syncs it, renames it over path and syncs
// the directory, so a failed write or a crash leaves the previous file or
// the new one, never a torn mix.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		// Sync before the rename, so a crash cannot publish a file whose
		// bytes never reached the disk.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Sync the directory too, so the rename itself survives a crash.
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// restoreSamples loads the checkpoint segment in dir if there is one.
func restoreSamples(stdout io.Writer, db *monitor.SampleDB, dir string) error {
	if dir == "" {
		return nil
	}
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
	fmt.Fprintf(stdout, "restored sample checkpoint: %d series, %d samples, %d compressed bytes\n",
		st.Series, st.Samples, st.CompressedBytes)
	return nil
}

func dumpMirror(coll *monitor.Collector, hostID, dir string) error {
	m := coll.Mirror(hostID)
	base := filepath.Join(dir, hostID)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	for _, name := range m.Names() {
		data := m.Get(name)
		err := writeFileAtomic(filepath.Join(base, name), func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}
