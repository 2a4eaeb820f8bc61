package monitor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"frostlab/internal/wire"
)

// InProcessSession is an authenticated session between an agent and the
// collector over an in-memory loopback: the protocol cmd/collectord runs
// over TCP, used by the simulation (internal/core) with deterministic
// nonces. Like the FleetCollector's pooled connections, it spans rounds:
// it is dialled once, carries one keep-alive collection per round, and is
// retired when its host goes offline or the run ends.
//
// Once the handshake is done, no goroutine belongs to the session: the
// agent runs on the collector's goroutine. Every write is queued, and a
// collector read that finds nothing queued has the agent serve exactly
// one frame — the request just written — whose reply it then reads. A
// frame thus costs two copies and no goroutine handoff.
type InProcessSession struct {
	hostID    string
	agent     *Agent
	lb        *loopback
	sess      *wire.Session // the collector's end
	agentSess *wire.Session
	// reply is the agent's reply buffer for this session (see serveFrame).
	reply []byte
	// serveErr is why the agent's side ended: nil after a clean bye, or
	// while it has not ended.
	serveErr error
}

// DialInProcess connects the collector to agent over a fresh loopback and
// runs the handshake, wire.Dial against wire.Accept, with nonces derived
// from nonceLabel. The agent's side of the handshake runs on a goroutine
// that is joined before DialInProcess returns.
func DialInProcess(agent *Agent, hostID string, psk []byte, nonceLabel string) (*InProcessSession, error) {
	lb := newLoopback()
	type accepted struct {
		sess *wire.Session
		err  error
	}
	done := make(chan accepted, 1)
	go func() {
		sess, err := wire.Accept(loopEnd{lb, toAgent}, wire.Keystore{hostID: psk}, wire.CounterNonce(nonceLabel+"/agent"))
		if err != nil {
			lb.close() // a Dial waiting for the agent's reply fails at once
		}
		done <- accepted{sess, err}
	}()
	sess, err := wire.Dial(loopEnd{lb, toCollector}, hostID, psk, wire.CounterNonce(nonceLabel+"/collector"))
	if err != nil {
		lb.close() // an Accept waiting for the collector's proof fails at once
	}
	acc := <-done
	s := &InProcessSession{hostID: hostID, agent: agent, lb: lb, sess: sess, agentSess: acc.sess, serveErr: acc.err}
	switch {
	case err != nil:
		return nil, s.abort(err)
	case acc.err != nil:
		return nil, s.stopped()
	}
	lb.step = s.step
	return s, nil
}

// Collect runs one round on the session with CollectHostKeepAlive. A
// failed round drops the session, without a bye, before returning: the
// caller dials a new one for the next round.
func (s *InProcessSession) Collect(coll *Collector, now time.Time) (RoundStats, error) {
	stats, err := coll.CollectHostKeepAlive(context.Background(), s.sess, s.hostID, now)
	if err != nil {
		return stats, s.abort(err)
	}
	return stats, nil
}

// Retire ends a healthy session: it queues a bye and steps the agent
// until Serve's bye path, or an error, ends the agent's side.
func (s *InProcessSession) Retire() error {
	byeErr := s.sess.Send(ftBye, nil)
	for !s.lb.isClosed() {
		s.step()
	}
	if s.serveErr != nil {
		return s.serveErr
	}
	return byeErr
}

// Close drops the session without a bye, for runs that stop between
// rounds.
func (s *InProcessSession) Close() error {
	s.lb.close()
	return nil
}

// step has the agent serve one frame. A bye or an error ends the agent's
// side, as it would return Serve, and closes the loopback, so a collector
// still sending or receiving fails at once.
func (s *InProcessSession) step() {
	bye, err := s.agent.serveFrame(s.agentSess, &s.reply)
	if bye || err != nil {
		s.serveErr = err
		s.lb.close()
	}
}

// abort drops the session and returns the error that explains the
// failure: the agent's own when the collector failed only because the
// agent hung up, err otherwise.
func (s *InProcessSession) abort(err error) error {
	s.lb.close()
	if s.serveErr != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe)) {
		return s.stopped()
	}
	return err
}

// stopped reports the agent's own error.
func (s *InProcessSession) stopped() error {
	return fmt.Errorf("monitor: agent %s stopped: %w", s.hostID, s.serveErr)
}

// Sides of a loopback, named for the end that reads them.
const (
	toCollector = 0
	toAgent     = 1
)

// loopback is an InProcessSession's transport: one byte queue per
// direction, so a write never waits. While the handshake runs wire.Dial
// and wire.Accept on two goroutines, a read that finds its queue empty
// waits for the peer's write or for close. Once the handshake is joined,
// step is set and the session's owner alone drives both ends: a collector
// read that finds its queue empty calls step once, and an agent read that
// finds its queue empty fails, since nothing else will ever write to it.
type loopback struct {
	mu     sync.Mutex
	wake   sync.Cond // signalled on every write and on close
	q      [2]queue  // indexed by the reading side
	closed bool
	// step has the agent serve one frame. It is written only after the
	// handshake's goroutine is joined, so reading it needs no lock.
	step func()
}

// queue is a byte queue that reuses its buffer once drained.
type queue struct {
	buf []byte
	off int
}

func (q *queue) empty() bool { return q.off == len(q.buf) }

func newLoopback() *loopback {
	lb := &loopback{}
	lb.wake.L = &lb.mu
	return lb
}

// close fails every later write and, once their queues drain, every read.
func (lb *loopback) close() {
	lb.mu.Lock()
	lb.closed = true
	lb.mu.Unlock()
	lb.wake.Broadcast()
}

func (lb *loopback) isClosed() bool {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.closed
}

// loopEnd is one side of a loopback: it reads q[side] and writes the other.
type loopEnd struct {
	lb   *loopback
	side int
}

func (e loopEnd) Read(p []byte) (int, error) {
	lb := e.lb
	lb.mu.Lock()
	q := &lb.q[e.side]
	if q.empty() && !lb.closed && lb.step != nil && e.side == toCollector {
		lb.mu.Unlock()
		lb.step() // the agent answers the request just written
		lb.mu.Lock()
	}
	for q.empty() && !lb.closed && lb.step == nil {
		lb.wake.Wait()
	}
	if q.empty() {
		lb.mu.Unlock()
		return 0, io.EOF
	}
	n := copy(p, q.buf[q.off:])
	q.off += n
	if q.empty() {
		q.buf, q.off = q.buf[:0], 0
	}
	lb.mu.Unlock()
	return n, nil
}

func (e loopEnd) Write(p []byte) (int, error) {
	lb := e.lb
	lb.mu.Lock()
	if lb.closed {
		lb.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	q := &lb.q[1-e.side]
	q.buf = append(q.buf, p...)
	lb.mu.Unlock()
	lb.wake.Broadcast()
	return len(p), nil
}
