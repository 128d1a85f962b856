package server

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker automaton. The
// numeric values are the wire contract of the
// neuroselect_server_breaker_state gauge (0 closed, 1 half-open, 2 open).
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

func (st breakerState) String() string {
	switch st {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// breaker protects the admission path from a wedged selector model. While
// closed, every inference is allowed and consecutive failures (errors or
// panics) are counted; at threshold (default 5) the breaker opens and
// inference is skipped outright — the server degrades to DefaultPolicy
// instantly instead of paying a failing model call per request. After
// cooldown (default 10s) the breaker half-opens and admits exactly one
// probe inference: success closes it, failure re-opens it for another
// cooldown. This is the paper's degrade-to-default fallback promoted from
// per-request to service-level: one bad model stops costing anything
// after `threshold` requests.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time      // test seam; time.Now in production
	onFlip    func(to breakerState) // transition hook (metrics); may be nil

	mu       sync.Mutex
	state    breakerState
	fails    int // consecutive failures while closed
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 10 * time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether an inference attempt may proceed. An open breaker
// past its cooldown transitions to half-open and admits the caller as the
// single probe.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.flipLocked(breakerHalfOpen)
		b.probing = true
		return true
	default: // half-open: only one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports the outcome of an allowed inference attempt.
func (b *breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.threshold {
			b.openedAt = b.now()
			b.flipLocked(breakerOpen)
		}
	case breakerHalfOpen:
		b.probing = false
		if ok {
			b.fails = 0
			b.flipLocked(breakerClosed)
		} else {
			b.openedAt = b.now()
			b.flipLocked(breakerOpen)
		}
	default:
		// A straggler recording after the breaker re-opened; ignore.
	}
}

// State returns the current automaton state.
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// flipLocked transitions the state and fires the hook. Callers hold b.mu.
func (b *breaker) flipLocked(to breakerState) {
	if b.state == to {
		return
	}
	b.state = to
	if b.onFlip != nil {
		b.onFlip(to)
	}
}
