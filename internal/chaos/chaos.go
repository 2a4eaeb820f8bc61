// Package chaos is a seeded, deterministic fault-injection layer for the
// monitoring plane. The paper's measurement infrastructure was its weakest
// link in the field — §4.2.1 documents lm-sensors faults and crashed hosts,
// and the measured series carry real collection gaps — so a faithful
// reproduction must be able to inflict those failures on demand and verify
// that the collector survives them and accounts for what was lost.
//
// Faults are drawn per collection attempt from simkernel RNG streams named
// after the exact decision point ("fault/<host>/r<round>/a<attempt>"), so
// the fault sequence is a pure function of (seed, host, round, attempt):
// the same seed and spec replay bit-identically regardless of goroutine
// interleaving or how many other hosts are being collected. On top of the
// probabilistic faults, explicit Down and Stalled schedules script the
// §4.2.1 incidents — an agent crashed for rounds 3–7, a host whose reads
// hang every round — as exactly reproducible scenarios.
//
// The injector wraps any net.Conn (chaos.Wrap) or a whole monitor.DialFunc
// (Injector.WrapDialer), so the same faults hit the in-process experiment
// plane and real TCP daemons alike.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"frostlab/internal/monitor"
	"frostlab/internal/simkernel"
)

// Kind enumerates injectable faults.
type Kind int

// Fault kinds. Refuse fails the dial outright; StallRead hangs a read
// until the collector's deadline fires; Cut severs the
// connection mid-frame after a drawn number of bytes; Corrupt flips one
// bit of the inbound byte stream, which wire must reject as tampering.
const (
	None Kind = iota
	Refuse
	StallRead
	Cut
	Corrupt
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Refuse:
		return "refuse"
	case StallRead:
		return "stall-read"
	case Cut:
		return "cut"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one injected failure for a single collection attempt.
type Fault struct {
	Kind Kind
	// CutAfter is how many inbound bytes the connection delivers before
	// the mid-frame cut (Kind == Cut).
	CutAfter int
	// CorruptOffset and CorruptBit locate the flipped bit in the inbound
	// byte stream (Kind == Corrupt). If the stream ends before the offset,
	// the fault is a no-op and the attempt succeeds — still deterministic.
	CorruptOffset int
	CorruptBit    uint8
	// StallDelay is how long a stalled operation blocks before surfacing
	// its timeout. Zero surfaces it immediately: the deterministic
	// equivalent of "the deadline fired", with no real time spent.
	StallDelay time.Duration
}

// RoundRange is an inclusive, 1-based range of collection rounds. To == 0
// means "until the end of the run".
type RoundRange struct {
	From, To int
}

// Contains reports whether the round falls in the range.
func (rr RoundRange) Contains(round int) bool {
	return round >= rr.From && (rr.To == 0 || round <= rr.To)
}

// Spec configures an Injector.
type Spec struct {
	// Seed roots the fault RNG streams. Same seed + same spec ⇒ identical
	// fault sequence.
	Seed string

	// Per-attempt probabilities of each probabilistic fault. Their sum
	// must not exceed 1; the remainder is the no-fault case.
	PRefuse    float64
	PStallRead float64
	PCut       float64
	PCorrupt   float64

	// StallDelay is attached to every drawn stall fault (see Fault).
	StallDelay time.Duration

	// PStaleConn is the per-(host, round) probability that a keepalive
	// session parked in the collector's connection pool went stale while
	// idle — the agent restarted, a NAT entry expired — and is severed
	// before pickup. It is a separate fault channel from the per-attempt
	// probabilities above (a stale keepalive costs a health-check round
	// trip and a redial, never a failed attempt), so it is validated in
	// [0,1] on its own and not summed with them.
	PStaleConn float64

	// Down scripts agent crash/restart schedules: every dial to the host
	// is refused while any listed range contains the round.
	Down map[string][]RoundRange
	// Stalled scripts hosts whose reads hang: every attempt in a listed
	// range stalls on read.
	Stalled map[string][]RoundRange
}

// Validate checks the spec's probabilities.
func (s Spec) Validate() error {
	ps := []float64{s.PRefuse, s.PStallRead, s.PCut, s.PCorrupt}
	sum := 0.0
	for _, p := range ps {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("chaos: probability %v outside [0,1]", p)
		}
		sum += p
	}
	if sum > 1 {
		return fmt.Errorf("chaos: fault probabilities sum to %v > 1", sum)
	}
	if !(s.PStaleConn >= 0 && s.PStaleConn <= 1) {
		return fmt.Errorf("chaos: PStaleConn %v outside [0,1]", s.PStaleConn)
	}
	if err := validateRanges(s.Down, "down", "host"); err != nil {
		return err
	}
	return validateRanges(s.Stalled, "stall", "host")
}

// validateRanges rejects a schedule range that starts before round 1 or
// ends before it starts; kind and subject label the error.
func validateRanges(sched map[string][]RoundRange, kind, subject string) error {
	for name, ranges := range sched {
		for _, rr := range ranges {
			if rr.From < 1 || (rr.To != 0 && rr.To < rr.From) {
				return fmt.Errorf("chaos: bad %s range %+v for %s %s", kind, rr, subject, name)
			}
		}
	}
	return nil
}

// Injector draws deterministic faults for collection attempts.
type Injector struct {
	mu   sync.Mutex
	spec Spec
	rng  *simkernel.RNG
}

// New validates the spec and returns an injector.
func New(spec Spec) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Injector{spec: spec, rng: simkernel.NewRNG(spec.Seed)}, nil
}

// FaultFor draws the fault for one (host, round, attempt). Scheduled Down
// and Stalled ranges take precedence over the probabilistic draw. Each
// decision point reads its own named RNG stream, so the result does not
// depend on the order or concurrency of other decisions.
func (in *Injector) FaultFor(host string, round, attempt int) Fault {
	if inRanges(in.spec.Down[host], round) {
		return Fault{Kind: Refuse}
	}
	if inRanges(in.spec.Stalled[host], round) {
		return Fault{Kind: StallRead, StallDelay: in.spec.StallDelay}
	}
	s := in.spec
	if s.PRefuse+s.PStallRead+s.PCut+s.PCorrupt == 0 {
		return Fault{}
	}
	name := fmt.Sprintf("fault/%s/r%d/a%d", host, round, attempt)
	in.mu.Lock()
	defer in.mu.Unlock()
	stream := in.rng.Stream(name)
	u := stream.Uniform(0, 1)
	f := Fault{StallDelay: s.StallDelay}
	switch {
	case u < s.PRefuse:
		f.Kind = Refuse
	case u < s.PRefuse+s.PStallRead:
		f.Kind = StallRead
	case u < s.PRefuse+s.PStallRead+s.PCut:
		f.Kind = Cut
		// Somewhere inside the handshake or the first frames.
		f.CutAfter = stream.Pick(512)
	case u < s.PRefuse+s.PStallRead+s.PCut+s.PCorrupt:
		f.Kind = Corrupt
		// Offsets below ~68 land in the handshake (rejected as ErrAuth);
		// later offsets land in frames (rejected as ErrTampered). Both
		// are detected failures; neither may be silently accepted.
		f.CorruptOffset = stream.Pick(4096)
		f.CorruptBit = uint8(stream.Pick(8))
	default:
		return Fault{}
	}
	return f
}

// StaleConn draws whether the host's pooled keepalive session went stale
// before the given round's pickup. It is the hook shape monitor expects
// as PoolConfig.Fault. One named stream per (host, round) keeps the draw
// a pure function of (seed, host, round): which worker collects the host,
// and whether a pool is even configured elsewhere in the fleet, cannot
// shift it.
func (in *Injector) StaleConn(host string, round int) bool {
	if in.spec.PStaleConn == 0 {
		return false
	}
	name := fmt.Sprintf("pool/%s/r%d", host, round)
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Stream(name).Bernoulli(in.spec.PStaleConn)
}

func inRanges(ranges []RoundRange, round int) bool {
	for _, rr := range ranges {
		if rr.Contains(round) {
			return true
		}
	}
	return false
}

// ErrRefused is the dial error of an injected connection refusal (also
// used for scheduled Down rounds — the agent is "crashed").
var ErrRefused = errors.New("chaos: dial refused (injected)")

// WrapDialer injects faults into a monitor.DialFunc: refusals fail the
// dial, every other fault wraps the returned connection.
func (in *Injector) WrapDialer(next monitor.DialFunc) monitor.DialFunc {
	return func(ctx context.Context, hostID string, round, attempt int) (net.Conn, error) {
		f := in.FaultFor(hostID, round, attempt)
		if f.Kind == Refuse {
			return nil, fmt.Errorf("%w: host %s round %d attempt %d", ErrRefused, hostID, round, attempt)
		}
		conn, err := next(ctx, hostID, round, attempt)
		if err != nil {
			return nil, err
		}
		return Wrap(conn, f), nil
	}
}
