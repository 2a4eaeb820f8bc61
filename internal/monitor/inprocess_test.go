package monitor

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"frostlab/internal/wire"
)

// pipeSession is the reference transport for InProcessSession: the agent's
// Serve loop on its own goroutine at the far end of a net.Pipe, closing
// its end when Serve returns, and joined by every teardown.
type pipeSession struct {
	hostID string
	conn   net.Conn
	sess   *wire.Session
	served chan error
}

func dialPipe(agent *Agent, hostID string, psk []byte, nonceLabel string) (*pipeSession, error) {
	a, c := net.Pipe()
	served := make(chan error, 1)
	go func() {
		sess, err := wire.Accept(a, wire.Keystore{hostID: psk}, wire.CounterNonce(nonceLabel+"/agent"))
		if err == nil {
			err = agent.Serve(sess)
		}
		a.Close()
		served <- err
	}()
	sess, err := wire.Dial(c, hostID, psk, wire.CounterNonce(nonceLabel+"/collector"))
	s := &pipeSession{hostID: hostID, conn: c, sess: sess, served: served}
	if err != nil {
		return nil, s.abort(err)
	}
	return s, nil
}

func (s *pipeSession) Collect(coll *Collector, now time.Time) (RoundStats, error) {
	stats, err := coll.CollectHostKeepAlive(context.Background(), s.sess, s.hostID, now)
	if err != nil {
		return stats, s.abort(err)
	}
	return stats, nil
}

func (s *pipeSession) Retire() error {
	byeErr := s.sess.Send(ftBye, nil)
	s.conn.Close()
	if err := <-s.served; err != nil {
		return err
	}
	return byeErr
}

func (s *pipeSession) abort(err error) error {
	s.conn.Close()
	serveErr := <-s.served
	if serveErr != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe)) {
		return fmt.Errorf("monitor: agent %s stopped: %w", s.hostID, serveErr)
	}
	return err
}

// roundSession is what the differential test drives: a session, and the
// collector's end of its frame stream for raw exchanges.
type roundSession interface {
	Collect(coll *Collector, now time.Time) (RoundStats, error)
	Retire() error
	frames() *wire.Session
}

func (s *InProcessSession) frames() *wire.Session { return s.sess }
func (s *pipeSession) frames() *wire.Session      { return s.sess }

// runScript drives scripted rounds over sessions from dial and returns
// everything the collector saw: round stats, raw replies, errors and the
// final mirror.
func runScript(t *testing.T, dial func(agent *Agent, hostID string, psk []byte, label string) (roundSession, error)) []string {
	t.Helper()
	const host = "07"
	rng := rand.New(rand.NewSource(3))
	store := NewFileStore()
	agent := NewAgent(host, store)
	coll := NewCollector(64)
	psk := wire.DerivePSK("differential", host)
	var log []string
	record := func(what string, v any, err error) {
		log = append(log, fmt.Sprintf("%s: %+v err=%v", what, v, err))
	}
	var sess roundSession
	dials := 0
	collect := func(what string) {
		if sess == nil {
			dials++
			s, err := dial(agent, host, psk, fmt.Sprintf("diff/%d", dials))
			if err != nil {
				t.Fatalf("%s: dial: %v", what, err)
			}
			sess = s
		}
		stats, err := sess.Collect(coll, t0.Add(time.Duration(len(log))*CollectionPeriod))
		if err != nil {
			sess = nil // a failed round has dropped its session
		}
		record(what, stats, err)
	}
	exchange := func(what string, ft byte, payload []byte) {
		if err := sess.frames().Send(ft, payload); err != nil {
			record(what, nil, err)
			return
		}
		rft, reply, err := sess.frames().Recv()
		record(what, fmt.Sprintf("frame %d %q", rft, reply), err)
	}

	store.Append(MD5Log, randomText(rng, 3000))
	store.Append(SensorLog, randomText(rng, 1000))
	collect("first")
	store.Append(MD5Log, randomText(rng, 250))
	store.Append(SensorLog, randomText(rng, 70))
	collect("appends")
	collect("idle")
	rewritten := store.Get(SensorLog)
	copy(rewritten[100:], "REWRITTEN")
	store.Put(SensorLog, rewritten)
	store.Append(SensorLog, randomText(rng, 40))
	collect("stale")
	exchange("unknown frame", 99, []byte("x"))
	exchange("ping", ftPing, nil)
	store.Append("huge.log", make([]byte, wire.MaxFrame+1))
	collect("oversized delta")
	store.Put("huge.log", randomText(rng, 500))
	collect("after redial")
	record("retire", nil, sess.Retire())

	mirror := coll.Mirror(host)
	for _, name := range mirror.Names() {
		record("mirror "+name, md5.Sum(mirror.Get(name)), nil)
	}
	record("history", coll.History(), nil)
	record("dials", dials, nil)
	return log
}

// TestInProcessMatchesPipe runs the same rounds — appends, an idle round,
// a rewritten file that takes the stale path, an agent error reply, a
// ping, an agent that cannot send its delta, and a redial — over
// DialInProcess and over a net.Pipe with Serve on a goroutine. The
// collector must see the same stats, replies, errors and mirrors.
func TestInProcessMatchesPipe(t *testing.T) {
	got := runScript(t, func(agent *Agent, hostID string, psk []byte, label string) (roundSession, error) {
		return DialInProcess(agent, hostID, psk, label)
	})
	want := runScript(t, func(agent *Agent, hostID string, psk []byte, label string) (roundSession, error) {
		return dialPipe(agent, hostID, psk, label)
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("in-process transcript differs from the pipe's:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, line := range want {
		if strings.HasPrefix(line, "oversized delta:") && !strings.Contains(line, "agent 07 stopped: wire: frame exceeds MaxFrame") {
			t.Errorf("oversized round: %s, want the agent's own error", line)
		}
		if strings.HasPrefix(line, "unknown frame:") && !strings.Contains(line, fmt.Sprintf("frame %d", ftError)) {
			t.Errorf("unknown frame: %s, want an error reply", line)
		}
	}
}

// waitGoroutines waits briefly for the goroutine count to fall to base: a
// joined goroutine may still be exiting when its join returns.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(100 * time.Millisecond)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%s: %d goroutines, baseline %d", what, n, base)
	}
}

// TestInProcessKeepsNoGoroutine checks that once DialInProcess returns no
// goroutine belongs to the session: rounds and the retirement run on the
// caller's goroutine alone.
func TestInProcessKeepsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	store := NewFileStore()
	agent := NewAgent("01", store)
	coll := NewCollector(0)
	s, err := DialInProcess(agent, "01", []byte("key"), "goroutines")
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base, "after the handshake")
	for round := 0; round < 5; round++ {
		store.Append(SensorLog, []byte(fmt.Sprintf("round %d\n", round)))
		if _, err := s.Collect(coll, t0.Add(time.Duration(round)*CollectionPeriod)); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("round %d: %d goroutines, baseline %d", round, n, base)
		}
	}
	if err := s.Retire(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("retired: %d goroutines, baseline %d", n, base)
	}
	if !bytes.Equal(coll.Mirror("01").Get(SensorLog), store.Get(SensorLog)) {
		t.Error("mirror differs from the agent's log")
	}
}

// TestInProcessHandshakeFailures fails the handshake on each side: the
// agent rejects a host ID longer than wire.Accept reads while Dial waits
// for its reply, and Dial refuses a host ID too long to send while Accept
// waits for the hello. Each must return an error, neither hang nor leave
// a goroutine behind.
func TestInProcessHandshakeFailures(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, c := range []struct {
		side, hostID, want string
	}{
		{"agent", strings.Repeat("a", 300), "agent " + strings.Repeat("a", 300) + " stopped: wire: blob of 300 bytes exceeds limit 256"},
		{"collector", strings.Repeat("c", 70000), "wire: blob of 70000 bytes too large"},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := DialInProcess(NewAgent(c.hostID, NewFileStore()), c.hostID, []byte("key"), "hs")
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s-side failure: err %.120v, want %.120q", c.side, err, c.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s-side failure: DialInProcess hung", c.side)
		}
	}
	waitGoroutines(t, base, "failed handshakes")
}

// TestInProcessTruncatedFrame writes a bare frame header to the agent's
// end of an established session. Nothing else will ever write there, so
// the frame must fail the session at the next round instead of hanging it.
func TestInProcessTruncatedFrame(t *testing.T) {
	store := NewFileStore()
	store.Append(SensorLog, []byte("x\n"))
	s, err := DialInProcess(NewAgent("01", store), "01", []byte("key"), "truncated")
	if err != nil {
		t.Fatal(err)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], 100)
	hdr[4] = ftList
	if _, err := (loopEnd{s.lb, toCollector}).Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	_, err = s.Collect(NewCollector(0), t0)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "agent 01 stopped") {
		t.Fatalf("round after a truncated frame: err %v, want the agent's unexpected EOF", err)
	}
	if _, err := s.Collect(NewCollector(0), t0); err == nil {
		t.Error("a failed session carried another round")
	}
}
