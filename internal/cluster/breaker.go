package cluster

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Breaker is a per-replica circuit breaker: Threshold consecutive failures
// open it, an open breaker refuses attempts for Cooloff, and the first
// attempt after the cooloff is a half-open probe — its outcome closes or
// re-opens the circuit. Graceful-drain 503s must not be fed to Failure;
// drain is a routing signal, not a health signal.
type Breaker struct {
	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time

	// threshold and cooloff are fixed at construction; now is the
	// injectable clock the tests use to step through the cooloff without
	// sleeping.
	threshold int
	cooloff   time.Duration
	now       func() time.Time
}

// NewBreaker returns a closed breaker opening after threshold consecutive
// failures and probing after cooloff.
func NewBreaker(threshold int, cooloff time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooloff: cooloff, now: time.Now}
}

// Allow reports whether an attempt may proceed. On an open breaker past
// its cooloff it transitions to half-open and admits exactly one probe;
// further calls are refused until that probe reports Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		// One probe is already in flight; hold the line.
		return false
	default: // open
		if b.now().Sub(b.openedAt) >= b.cooloff {
			b.state = breakerHalfOpen
			return true
		}
		return false
	}
}

// Success reports a completed attempt: it closes the circuit and clears
// the consecutive-failure count.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.failures = 0
}

// Failure reports a failed attempt. In half-open it re-opens immediately
// (the probe failed); closed, it opens once threshold consecutive
// failures accumulate.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.failures = 0
	}
}

// State returns the breaker's state name ("closed", "open", "half-open")
// for /healthz and metrics.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}
