// nodeagent is the per-host side of the §3.5 monitoring plane as a real
// network daemon: it runs the synthetic workload cycle against a local
// source tree, appends md5sum results to its log store, and serves
// authenticated delta-sync collections over TCP.
//
// SIGINT/SIGTERM shut it down gracefully: the workload loop stops, the
// listener closes so no new collections start, in-flight collections are
// drained (bounded by -drain), and the agent exits 0 — so a collector
// mid-sync sees a complete round rather than a torn frame.
//
// Usage:
//
//	nodeagent -id 01 [-listen 127.0.0.1:7701] [-keyseed winter0910]
//	          [-cycle 10m] [-cycles 0] [-drain 30s] [-max-sessions 64]
//	          [-debug-addr 127.0.0.1:6061]
//
// Keys are derived as SHA-256(keyseed/psk/<id>), matching collectord.
// -debug-addr opens a telemetry listener serving /metrics (workload and
// collection counters), /healthz, /buildinfo, and net/http/pprof.
package main

import (
	"context"
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"net"
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
			"Inbound connections closed immediately because -max-sessions were already in flight."),
		inflight: reg.NewGauge("frostlab_agent_inflight_collections",
			"Collection sessions currently being served."),
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nodeagent:", err)
		os.Exit(1)
	}
}

func randNonce() ([]byte, error) {
	b := make([]byte, wire.NonceSize)
	_, err := rand.Read(b)
	return b, err
}

func run() error {
	id := flag.String("id", "", "host identifier (e.g. 01)")
	listen := flag.String("listen", "127.0.0.1:7701", "TCP listen address")
	keyseed := flag.String("keyseed", "winter0910", "pre-shared key derivation seed")
	keyfile := flag.String("keystore", "", "keystore file of hostID hexkey lines (overrides -keyseed)")
	cycle := flag.Duration("cycle", 10*time.Minute, "workload cycle period (§3.5: 10 minutes)")
	cycles := flag.Int("cycles", 0, "stop the workload after N cycles (0 = forever)")
	drain := flag.Duration("drain", 30*time.Second, "max wait for in-flight collections on shutdown")
	maxSessions := flag.Int("max-sessions", 64, "cap concurrent collection sessions; excess connections are closed immediately (0 = unbounded)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /buildinfo and net/http/pprof on this address")
	flag.Parse()

	if *id == "" {
		return fmt.Errorf("-id is required")
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
	fmt.Printf("nodeagent %s: reference md5 %s, %d blocks, listening on %s\n",
		*id, runner.Reference(), runner.ReferenceBlocks(), *listen)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := telemetry.NewRegistry()
	met := newAgentMetrics(reg)
	if *debugAddr != "" {
		go func() {
			if err := telemetry.NewServer(*debugAddr, telemetry.DebugMux(reg, true)).ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "debug listener: %v\n", err)
			}
		}()
		fmt.Printf("telemetry + pprof on http://%s/\n", *debugAddr)
	}

	// Workload loop: real wall-clock cadence with the paper's 0-119 s
	// start fuzz, scaled proportionally when a shorter -cycle is chosen.
	// The loop selects on the signal context so shutdown never waits out
	// a sleep.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fuzz := workload.StartFuzz(rng, *id)
		scale := float64(*cycle) / float64(workload.CyclePeriod)
		for n := 0; *cycles == 0 || n < *cycles; n++ {
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

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// On signal: close the listener so Accept returns and no new
	// collections start.
	go func() {
		<-ctx.Done()
		ln.Close()
	}()

	// Session semaphore: a misbehaving (or overloaded) collector cannot
	// pile unbounded concurrent sessions — and their goroutines — onto
	// one agent. Excess connections fail fast with an immediate close,
	// which the collector's retry path handles like any refused dial.
	// Rejected connections never enter the inflight group, so the
	// -drain shutdown wait composes: it only waits for real sessions.
	var sem chan struct{}
	if *maxSessions > 0 {
		sem = make(chan struct{}, *maxSessions)
	}
	var inflight sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			if errors.Is(err, net.ErrClosed) {
				break
			}
			return err
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			default:
				met.rejected.Inc()
				conn.Close()
				continue
			}
		}
		inflight.Add(1)
		go func() {
			if sem != nil {
				defer func() { <-sem }()
			}
			defer inflight.Done()
			defer conn.Close()
			met.inflight.Inc()
			defer met.inflight.Dec()
			sess, err := wire.Accept(conn, keys, randNonce)
			if err != nil {
				fmt.Fprintf(os.Stderr, "handshake: %v\n", err)
				met.handshakeErrs.Inc()
				return
			}
			if err := agent.Serve(sess); err != nil {
				fmt.Fprintf(os.Stderr, "serve: %v\n", err)
				met.serveErrors.Inc()
				return
			}
			met.collections.Inc()
		}()
	}

	// Drain: let in-flight collections finish (bounded), stop the
	// workload, exit clean.
	fmt.Fprintf(os.Stderr, "nodeagent %s: shutting down, draining collections\n", *id)
	if !waitTimeout(&inflight, *drain) {
		fmt.Fprintf(os.Stderr, "nodeagent %s: drain timed out after %v\n", *id, *drain)
	}
	wg.Wait()
	fmt.Fprintf(os.Stderr, "nodeagent %s: stopped\n", *id)
	return nil
}

// waitTimeout waits for wg up to d; false on timeout.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}
