// nodeagent is the per-host side of the §3.5 monitoring plane as a real
// network daemon: it runs the synthetic workload cycle against a local
// source tree, appends md5sum results to its log store, and serves
// authenticated delta-sync collections over TCP.
//
// SIGINT/SIGTERM shut it down gracefully: the workload loop stops, the
// listener closes so no new collections start, a session waiting for its
// collector's next request ends at once, one that has begun receiving a
// request answers it and then ends (the wait bounded by drainTimeout),
// and the agent exits 0 — so a collector mid-request sees its reply
// rather than a torn frame, and a parked keepalive does not hold the
// shutdown.
//
// Usage:
//
//	nodeagent -id 01 [-listen 127.0.0.1:7701] [-keyseed winter0910 |
//	          -keystore keys.txt] [-cycle 10m] [-debug-addr 127.0.0.1:6061]
//
// Keys are derived as SHA-256(keyseed/psk/<id>), matching collectord.
// -debug-addr opens a telemetry listener serving /metrics (workload and
// collection counters), /healthz, /buildinfo, and net/http/pprof. Both
// listeners are bound before the first cycle, so a busy or malformed
// address fails the start.
package main

import (
	"context"
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"frostlab/internal/monitor"
	"frostlab/internal/simkernel"
	"frostlab/internal/telemetry"
	"frostlab/internal/wire"
	"frostlab/internal/workload"
)

const (
	// maxSessions caps concurrent collection sessions; past it an inbound
	// connection is closed at once.
	maxSessions = 64
	// drainTimeout bounds the shutdown's wait for a request in flight.
	drainTimeout = 30 * time.Second
)

// agentMetrics is nodeagent's own instrument plane: unlike the
// simulation's scrape-time views, these are written from concurrent
// goroutines (workload loop, acceptor, per-connection servers), so they
// are the atomic instruments directly.
type agentMetrics struct {
	cycles        *telemetry.Counter
	badCycles     *telemetry.Counter
	cycleErrors   *telemetry.Counter
	collections   *telemetry.Counter
	serveErrors   *telemetry.Counter
	handshakeErrs *telemetry.Counter
	rejected      *telemetry.Counter
	inflight      *telemetry.Gauge
}

func newAgentMetrics(reg *telemetry.Registry) *agentMetrics {
	return &agentMetrics{
		cycles: reg.NewCounter("frostlab_agent_cycles_total",
			"Workload cycles completed (§3.5 tar+compress+md5)."),
		badCycles: reg.NewCounter("frostlab_agent_bad_cycles_total",
			"Cycles whose md5sum did not match the reference."),
		cycleErrors: reg.NewCounter("frostlab_agent_cycle_errors_total",
			"Cycles that failed to run at all."),
		collections: reg.NewCounter("frostlab_agent_collections_total",
			"Collection sessions served to completion."),
		serveErrors: reg.NewCounter("frostlab_agent_serve_errors_total",
			"Collection sessions that ended in a protocol error."),
		handshakeErrs: reg.NewCounter("frostlab_agent_handshake_failures_total",
			"Inbound connections that failed authentication."),
		rejected: reg.NewCounter("frostlab_agent_sessions_rejected_total",
			"Inbound connections closed immediately because the session cap was already in flight."),
		inflight: reg.NewGauge("frostlab_agent_inflight_collections",
			"Collection sessions currently being served."),
	}
}

func main() {
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
		fmt.Fprintln(os.Stderr, "nodeagent:", err)
	}
	return 1
}

// flagError is a parse error the FlagSet has already reported.
type flagError struct{ error }

func (e flagError) Unwrap() error { return e.error }

func randNonce() ([]byte, error) {
	b := make([]byte, wire.NonceSize)
	_, err := rand.Read(b)
	return b, err
}

// run serves collections and runs the workload until ctx is cancelled,
// then drains and returns.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nodeagent", flag.ContinueOnError)
	id := fs.String("id", "", "host identifier (e.g. 01)")
	listen := fs.String("listen", "127.0.0.1:7701", "TCP listen address")
	keyseed := fs.String("keyseed", "winter0910", "pre-shared key derivation seed")
	keyfile := fs.String("keystore", "", "keystore file of hostID hexkey lines (overrides -keyseed)")
	cycle := fs.Duration("cycle", 10*time.Minute, "workload cycle period (§3.5: 10 minutes)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz, /buildinfo and net/http/pprof on this address")
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	if *cycle <= 0 {
		return fmt.Errorf("-cycle must be positive, got %v", *cycle)
	}
	store := monitor.NewFileStore()
	agent := monitor.NewAgent(*id, store)
	keys := wire.Keystore{*id: wire.DerivePSK(*keyseed, *id)}
	if *keyfile != "" {
		f, err := os.Open(*keyfile)
		if err != nil {
			return err
		}
		loaded, err := wire.LoadKeystore(f)
		f.Close()
		if err != nil {
			return err
		}
		key, err := loaded.Lookup(*id)
		if err != nil {
			return err
		}
		keys = wire.Keystore{*id: key}
	}

	rng := simkernel.NewRNG(*keyseed + "/agent/" + *id)
	runner, err := workload.NewRunner(*id, *keyseed+"/tree/"+*id, 30, 128<<10, 8<<10, rng)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	reg := telemetry.NewRegistry()
	met := newAgentMetrics(reg)
	if *debugAddr != "" {
		bound, stop, err := serve(*debugAddr, telemetry.DebugMux(reg, true))
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer stop()
		fmt.Fprintf(stdout, "telemetry + pprof on http://%s/\n", bound)
	}
	fmt.Fprintf(stdout, "nodeagent %s: reference md5 %s, %d blocks, listening on %s\n",
		*id, runner.Reference(), runner.ReferenceBlocks(), ln.Addr())

	// The workload loop and the acceptor stop together: on a signal, or
	// when Accept fails.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopAccept := context.AfterFunc(ctx, func() { ln.Close() })
	defer stopAccept()

	// Workload loop: real wall-clock cadence with the paper's 0-119 s
	// start fuzz, scaled proportionally when a shorter -cycle is chosen.
	// The loop selects on the context so shutdown never waits out a
	// sleep.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fuzz := workload.StartFuzz(rng, *id)
		scale := float64(*cycle) / float64(workload.CyclePeriod)
		for {
			if monitor.SleepContext(ctx, time.Duration(float64(fuzz())*scale)) != nil {
				return
			}
			cycleStart := time.Now()
			res, err := runner.RunCycle(cycleStart, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cycle: %v\n", err)
				met.cycleErrors.Inc()
				continue
			}
			met.cycles.Inc()
			status := "OK"
			ok := 1
			if !res.OK {
				status = "BAD"
				ok = 0
				met.badCycles.Inc()
			}
			line := fmt.Sprintf("%s %s %s\n", res.At.UTC().Format(time.RFC3339), status, res.MD5)
			store.Append(monitor.MD5Log, []byte(line))
			// The host's own health readings go to the sensor channel as
			// timestamped key=value samples; collectord parses these into
			// its compressed sample store.
			sensor := fmt.Sprintf("%s cycle_ms=%.1f ok=%d\n",
				res.At.UTC().Format(time.RFC3339),
				float64(time.Since(cycleStart))/float64(time.Millisecond), ok)
			store.Append(monitor.SensorLog, []byte(sensor))
			if monitor.SleepContext(ctx, *cycle) != nil {
				return
			}
		}
	}()

	// Session semaphore: a misbehaving (or overloaded) collector cannot
	// pile unbounded concurrent sessions — and their goroutines — onto
	// one agent. Excess connections fail fast with an immediate close,
	// which the collector's retry path handles like any refused dial.
	sem := make(chan struct{}, maxSessions)
	var inflight sync.WaitGroup
	var acceptErr error
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				acceptErr = err
			}
			break
		}
		select {
		case sem <- struct{}{}:
		default:
			met.rejected.Inc()
			conn.Close()
			continue
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			defer func() { <-sem }()
			defer conn.Close()
			met.inflight.Inc()
			defer met.inflight.Dec()
			s := &session{Conn: conn}
			defer context.AfterFunc(ctx, s.shutdown)()
			// A session that shutdown ends is not an error.
			sess, err := wire.Accept(s, keys, randNonce)
			if err != nil {
				if ctx.Err() == nil {
					fmt.Fprintf(os.Stderr, "handshake: %v\n", err)
					met.handshakeErrs.Inc()
				}
				return
			}
			if err := agent.Serve(sess); err == nil {
				met.collections.Inc()
			} else if ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "serve: %v\n", err)
				met.serveErrors.Inc()
			}
		}()
	}

	// Drain: stop the workload and end every session, exit clean.
	fmt.Fprintf(os.Stderr, "nodeagent %s: shutting down, draining collections\n", *id)
	cancel()
	inflight.Wait()
	wg.Wait()
	fmt.Fprintf(os.Stderr, "nodeagent %s: stopped\n", *id)
	return acceptErr
}

// session is one inbound collection connection. The agent answers each
// request with one Write and reads nothing in between, so a request is in
// flight from its first byte read to the next Write. At shutdown a
// session with no request in flight ends at once, and one with a request
// in flight answers it, within drainTimeout, and then ends.
type session struct {
	net.Conn
	mu                sync.Mutex
	inFlight, closing bool
}

func (s *session) Read(p []byte) (int, error) {
	n, err := s.Conn.Read(p)
	s.mu.Lock()
	s.inFlight = s.inFlight || n > 0
	s.mu.Unlock()
	return n, err
}

func (s *session) Write(p []byte) (int, error) {
	n, err := s.Conn.Write(p)
	s.mu.Lock()
	s.inFlight = false
	if s.closing {
		s.Conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	return n, err
}

// shutdown ends the session at its next wait for a request, interrupting
// the one it is in.
func (s *session) shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closing = true
	if s.inFlight {
		s.Conn.SetDeadline(time.Now().Add(drainTimeout))
	} else {
		s.Conn.SetReadDeadline(time.Now())
	}
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
			fmt.Fprintln(os.Stderr, "nodeagent:", err)
		}
	}()
	return ln.Addr().String(), func() { srv.Close(); <-done }, nil
}
