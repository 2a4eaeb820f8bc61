package monitor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"frostlab/internal/wire"
)

// InProcessSession is an authenticated session between an agent and the
// collector over an in-memory pipe: the exact code path cmd/collectord
// runs over TCP, used by the simulation (internal/core) with deterministic
// nonces. Like the FleetCollector's pooled connections, it spans rounds:
// it is dialled once, carries one keep-alive collection per round, and is
// retired when its host goes offline or the run ends, so a round costs no
// pipe, goroutine or handshake of its own.
type InProcessSession struct {
	hostID string
	conn   net.Conn // the collector's end of the pipe
	sess   *wire.Session
	served chan error // the agent's Serve result, once its goroutine ends
}

// DialInProcess connects the collector to agent over a fresh pipe, runs
// the handshake with nonces derived from nonceLabel, and leaves the agent
// serving the session on its own goroutine.
func DialInProcess(agent *Agent, hostID string, psk []byte, nonceLabel string) (*InProcessSession, error) {
	a, c := net.Pipe()
	keys := wire.Keystore{hostID: psk}
	served := make(chan error, 1)
	go func() {
		sess, err := wire.Accept(a, keys, wire.CounterNonce(nonceLabel+"/agent"))
		if err == nil {
			err = agent.Serve(sess)
		}
		// net.Pipe is synchronous: closing the agent's end whenever Serve
		// returns makes a collector still sending or receiving fail at
		// once instead of blocking forever.
		a.Close()
		served <- err
	}()
	sess, err := wire.Dial(c, hostID, psk, wire.CounterNonce(nonceLabel+"/collector"))
	s := &InProcessSession{hostID: hostID, conn: c, sess: sess, served: served}
	if err != nil {
		return nil, s.abort(err)
	}
	return s, nil
}

// Collect runs one round on the session with CollectHostKeepAlive. A
// failed round tears the session down, without a bye, before returning:
// the caller dials a new one for the next round.
func (s *InProcessSession) Collect(coll *Collector, now time.Time) (RoundStats, error) {
	stats, err := coll.CollectHostKeepAlive(context.Background(), s.sess, s.hostID, now)
	if err != nil {
		return stats, s.abort(err)
	}
	return stats, nil
}

// Retire ends a healthy session: a bye that returns the agent from Serve,
// then the pipe's teardown. It returns once the agent's goroutine has.
func (s *InProcessSession) Retire() error {
	byeErr := s.sess.Send(ftBye, nil)
	s.conn.Close()
	if err := <-s.served; err != nil {
		return err
	}
	return byeErr
}

// Close tears the session down without a bye, for runs that stop between
// rounds, and returns once the agent's goroutine has.
func (s *InProcessSession) Close() error { return s.abort(nil) }

// abort closes the pipe, joins the agent and returns the error that
// explains the failure: the agent's own when the collector failed only
// because the agent hung up, err otherwise.
func (s *InProcessSession) abort(err error) error {
	s.conn.Close()
	serveErr := <-s.served
	if serveErr != nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe)) {
		return fmt.Errorf("monitor: agent %s stopped: %w", s.hostID, serveErr)
	}
	return err
}
