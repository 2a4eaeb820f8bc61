package chaos_test

import (
	"bytes"
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"frostlab/internal/chaos"
	"frostlab/internal/monitor"
)

// countingConn counts the bytes the collector reads.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestCutRoundConvergesNextRound cuts the second of three collection
// rounds after every possible number of inbound bytes. The cut points
// inside a delta reply fall between an append request, which the agent
// has already verified and answered, and the delta's arrival, which the
// collector never sees. Whatever the cut point, the third round must
// leave every mirror equal to the agent's file.
func TestCutRoundConvergesNextRound(t *testing.T) {
	const host = "01"
	appendRound := func(store *monitor.FileStore, round int) {
		at := t0.Add(time.Duration(round) * 20 * time.Minute)
		for i := 0; i < 6; i++ {
			ts := at.Add(time.Duration(i) * time.Minute).Format(time.RFC3339)
			store.Append(monitor.SensorLog, []byte(ts+" cpu=-4.1 disk0=8.0\n"))
			store.Append(monitor.MD5Log, []byte(ts+" OK d41d8cd98f00b204e9800998ecf8427e\n"))
		}
	}
	// run collects three rounds, cutting round 2 after cut inbound bytes
	// (0: no cut), and returns the round-2 inbound byte count, the
	// round outcomes, the agent's store and the collector's mirror.
	run := func(cut int) (int64, []monitor.RoundReport, *monitor.FileStore, *monitor.FileStore) {
		ids := []string{host}
		agents, keys := buildAgents(ids)
		store := agents[host].Store()
		inner := monitor.InProcessDialer(agents, keys, "append-cut")
		var inbound atomic.Int64
		dial := func(ctx context.Context, hostID string, round, attempt int) (net.Conn, error) {
			conn, err := inner(ctx, hostID, round, attempt)
			if err != nil || round != 2 {
				return conn, err
			}
			if cut > 0 {
				return chaos.Wrap(conn, chaos.Fault{Kind: chaos.Cut, CutAfter: cut}), nil
			}
			return countingConn{conn, &inbound}, nil
		}
		coll := monitor.NewCollector(64)
		fc, err := monitor.NewFleetCollector(coll, monitor.FleetConfig{
			Hosts:        ids,
			Dial:         dial,
			KeyFor:       func(id string) ([]byte, error) { return keys[id], nil },
			NonceFor:     monitor.InProcessNonces("append-cut"),
			Retry:        monitor.RetryPolicy{MaxAttempts: 1},
			Breaker:      monitor.BreakerConfig{Trip: 3, Cooldown: 1},
			PhaseTimeout: 2 * time.Second,
			Jitter:       monitor.DeterministicJitter("append-cut"),
			Sleep:        noSleep,
		})
		if err != nil {
			t.Fatal(err)
		}
		var reps []monitor.RoundReport
		for r := 1; r <= 3; r++ {
			appendRound(store, r)
			reps = append(reps, fc.Round(context.Background(), t0.Add(time.Duration(r)*20*time.Minute)))
		}
		return inbound.Load(), reps, store, coll.Mirror(host)
	}

	total, reps, _, _ := run(0)
	if total == 0 || reps[1].Hosts[0].Status != monitor.StatusOK {
		t.Fatalf("clean round 2: %d inbound bytes, outcome %+v", total, reps[1].Hosts[0])
	}
	for cut := 1; cut < int(total); cut++ {
		_, reps, store, mirror := run(cut)
		if got := reps[1].Hosts[0].Status; got != monitor.StatusFailed {
			t.Fatalf("cut after %d of %d bytes: round 2 %s, want failed", cut, total, got)
		}
		if got := reps[2].Hosts[0]; got.Status != monitor.StatusOK {
			t.Fatalf("cut after %d bytes: round 3 %+v", cut, got)
		}
		for _, name := range store.Names() {
			if !bytes.Equal(mirror.Get(name), store.Get(name)) {
				t.Fatalf("cut after %d of %d bytes: mirror of %s diverged after the next round", cut, total, name)
			}
		}
	}
}
