package monitor

import (
	"fmt"
	"net"
	"sync"

	"frostlab/internal/wire"
)

// PoolConfig enables cross-round connection reuse in a FleetCollector.
// With a pool configured, a successful collection parks its authenticated
// session instead of tearing it down; the next round pings the parked
// session and, if it answers, skips the dial and handshake entirely. Even
// at the paper's 20-minute cadence the handshake is not noise when a round
// moves only the bytes appended since the last one: in the simulation,
// dialling every host every round (a pipe, two goroutines and a
// four-message handshake) took about a third of a 7-day monitored run
// until core kept one InProcessSession per host across rounds (0.267 s to
// 0.180 s per run on 2 CPUs). Past that, the goroutine handoffs of each
// frame crossing a synchronous pipe cost another third, until the
// in-process agent came to serve its frames on the collector's goroutine
// (0.180 s to 0.119 s). Under load — a 1k-host fleet collected every few
// seconds — dial-per-attempt is the dominant per-round cost, and a
// keepalive pool removes it.
type PoolConfig struct {
	// Fault, when non-nil, is consulted once per pooled pickup with the
	// host and round being collected. Returning true severs the parked
	// connection before the health check runs — the chaos injector's hook
	// (chaos.Injector.StaleConn) for "the agent restarted while the
	// collector held a keepalive to it". The health check then fails, the
	// session is retired, and the attempt falls back to a fresh dial, so
	// an injected pool fault costs one ping round-trip, never a round.
	Fault func(hostID string, round int) bool
}

// pooledConn is one idle keepalive session: the raw connection (for
// teardown and the watchdog) and the authenticated session riding it.
type pooledConn struct {
	conn net.Conn
	sess *wire.Session
}

// connPool holds at most one idle authenticated session per host. It is
// deliberately that small: a FleetCollector collects each host at most
// once per round, so a deeper per-host pool would only hold dead weight.
type connPool struct {
	mu     sync.Mutex
	idle   map[string]*pooledConn
	closed bool
}

func newConnPool() *connPool {
	return &connPool{idle: make(map[string]*pooledConn)}
}

// get removes and returns the host's idle session (nil if none). The
// caller owns the session until it puts it back or closes it.
func (p *connPool) get(hostID string) *pooledConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	pc := p.idle[hostID]
	delete(p.idle, hostID)
	return pc
}

// put parks a healthy session for the next round. If the pool is closed
// (or the host somehow already has an idle session), the newcomer is
// retired with a clean bye instead.
func (p *connPool) put(hostID string, pc *pooledConn) {
	p.mu.Lock()
	if p.closed || p.idle[hostID] != nil {
		p.mu.Unlock()
		retire(pc)
		return
	}
	p.idle[hostID] = pc
	p.mu.Unlock()
}

// size reports the idle sessions currently parked.
func (p *connPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// close retires every idle session and refuses future parking. Each
// retirement sends a best-effort bye first, so agents whose transports
// still work see a clean end of session rather than a torn connection.
func (p *connPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = make(map[string]*pooledConn)
	p.closed = true
	p.mu.Unlock()
	for _, pc := range idle {
		retire(pc)
	}
}

// retire ends a session: best-effort bye, then transport teardown.
func retire(pc *pooledConn) {
	_ = pc.sess.Send(ftBye, nil)
	_ = pc.conn.Close()
}

// ping round-trips a keepalive probe on a session. Any response frame
// proves the far side is alive and reading; only ftPong proves it is
// also protocol-current, so anything else is an error and the session
// is retired rather than trusted with a round.
func ping(sess *wire.Session) error {
	if err := sess.Send(ftPing, nil); err != nil {
		return err
	}
	ft, _, err := sess.Recv()
	if err != nil {
		return err
	}
	if ft != ftPong {
		return fmt.Errorf("monitor: ping answered with frame %d, want pong", ft)
	}
	return nil
}
