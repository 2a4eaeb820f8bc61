package monitor

import "fmt"

// BreakerState is a per-host circuit breaker's position.
type BreakerState int

// Breaker states: closed (normal collection), open (host presumed down,
// rounds are skipped without dialling), half-open (one probe attempt
// allowed to test recovery).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// BreakerConfig tunes the per-host circuit breaker. The cooldown is
// measured in collection rounds, not wall time, so breaker behaviour —
// like everything else in a chaos run — is a pure function of the round
// sequence and replays bit-identically.
type BreakerConfig struct {
	// Trip opens the breaker after this many consecutive failed rounds.
	// 0 disables the breaker (it stays closed forever).
	Trip int
	// Cooldown is how many rounds an open breaker skips before allowing a
	// half-open probe. Values below 1 mean 1.
	Cooldown int
}

func (bc BreakerConfig) cooldown() int {
	if bc.Cooldown < 1 {
		return 1
	}
	return bc.Cooldown
}

// Breaker is one host's circuit breaker. It is driven once per round by
// the FleetCollector: Gate() before the host's attempts, then exactly one
// of OnSuccess or OnFailure (or nothing, when Gate denied the round). It
// is not safe for concurrent use; the fleet collector gives each host —
// and therefore each breaker — its own goroutine.
type Breaker struct {
	cfg     BreakerConfig
	state   BreakerState
	fails   int // consecutive failed rounds
	cooling int // rounds left before the open breaker half-opens
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg}
}

// State reports the breaker's position.
func (b *Breaker) State() BreakerState { return b.state }

// Gate is called once at the start of a round. allow reports whether the
// host may be collected at all this round; probe restricts an allowed
// round to a single attempt (the half-open probe).
func (b *Breaker) Gate() (allow, probe bool) {
	switch b.state {
	case BreakerOpen:
		if b.cooling > 0 {
			b.cooling--
			return false, false
		}
		b.state = BreakerHalfOpen
		return true, true
	case BreakerHalfOpen:
		return true, true
	default:
		return true, false
	}
}

// OnSuccess records a collected round: any breaker closes.
func (b *Breaker) OnSuccess() {
	b.state = BreakerClosed
	b.fails = 0
}

// OnFailure records a round whose every attempt failed. A failed half-open
// probe re-opens immediately; a closed breaker opens once the consecutive
// failure count reaches Trip.
func (b *Breaker) OnFailure() {
	b.fails++
	if b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.cooling = b.cfg.cooldown()
		return
	}
	if b.cfg.Trip > 0 && b.fails >= b.cfg.Trip {
		b.state = BreakerOpen
		b.cooling = b.cfg.cooldown()
	}
}
