package obs

import (
	"sync"
	"sync/atomic"
)

// Broadcaster fans one solve's trace-event stream out to N subscribers.
// It implements Tracer, so it drops into any tracer chain (obs.Multi)
// the solver or server already assembles.
//
// Delivery contract — the solver hot path is sacred:
//
//   - Trace never blocks. Each subscriber owns a bounded queue; an event
//     that finds the queue full is dropped for that subscriber and
//     counted on its subscription, never waited on.
//     A stalled consumer therefore costs the producing solve nothing —
//     the tracer-neutrality tests pin the search trajectory bit-identical
//     with a deliberately unread subscription attached.
//   - Every event gets a monotonically increasing sequence number,
//     stamped once by the broadcaster. A bounded ring buffer keeps the
//     most recent events so late subscribers (or an SSE client resuming
//     with Last-Event-ID) replay recent history before going live.
//   - Close terminates the stream: subscriber channels close after the
//     pending queue drains, and later subscribers still replay the ring
//     into an already-closed channel, so "subscribe after the solve
//     finished" degrades to a pure replay.
type Broadcaster struct {
	opts BroadcastOpts

	mu     sync.Mutex
	ring   []StampedEvent // circular once len == opts.Ring; grown lazily
	next   int            // ring insert position once the ring is full
	seq    int64          // last assigned sequence number (first event = 1)
	subs   map[*Subscription]struct{}
	closed bool
}

// StampedEvent is one broadcast event with its stream sequence number —
// the SSE `id:` field, and the cursor Subscribe resumes from.
type StampedEvent struct {
	Seq   int64
	Event Event
}

// BroadcastOpts configures a Broadcaster. The zero value is usable.
type BroadcastOpts struct {
	// Ring bounds the replay history in events (<=0 → 256). The ring is
	// grown lazily, so an idle broadcaster costs a few words, not Ring
	// events.
	Ring int
	// ReqID, when non-empty, is stamped into every event's req_id field
	// (unless the emitter already set one), correlating the stream with
	// the HTTP request that started the solve.
	ReqID string
	// OnDrop, when non-nil, is called with the number of events dropped
	// by one Trace call (outside the broadcaster lock). The server maps
	// this onto event_stream_events_total{outcome="dropped"}.
	OnDrop func(n int64)
}

// NewBroadcaster builds an open broadcaster.
func NewBroadcaster(opts BroadcastOpts) *Broadcaster {
	if opts.Ring <= 0 {
		opts.Ring = 256
	}
	return &Broadcaster{opts: opts, subs: make(map[*Subscription]struct{})}
}

// Trace implements Tracer: stamp, remember, fan out. Never blocks — a
// full subscriber queue drops the event for that subscriber and counts
// it. Safe for concurrent emitters: the lock stamps them in one order.
func (b *Broadcaster) Trace(ev *Event) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	se := StampedEvent{Seq: b.seq, Event: *ev}
	if se.Event.ReqID == "" {
		se.Event.ReqID = b.opts.ReqID
	}
	if len(b.ring) < b.opts.Ring {
		b.ring = append(b.ring, se)
	} else {
		b.ring[b.next] = se
		b.next = (b.next + 1) % len(b.ring)
	}
	var droppedNow int64
	for sub := range b.subs {
		select {
		case sub.ch <- se:
		default:
			sub.dropped.Add(1)
			droppedNow++
		}
	}
	b.mu.Unlock()
	if droppedNow > 0 && b.opts.OnDrop != nil {
		b.opts.OnDrop(droppedNow)
	}
}

// Subscribe attaches a consumer. Ring events with Seq > afterSeq are
// replayed first (afterSeq 0 = everything retained), then live events
// flow through a queue of queueCap entries (<=0 → 64); replay always
// fits regardless of queueCap. gap reports that events between afterSeq
// and the replay were already evicted from the ring — the consumer sees
// a hole it may want to surface. Subscribing to a closed broadcaster
// returns the replay followed immediately by channel close.
func (b *Broadcaster) Subscribe(afterSeq int64, queueCap int) (sub *Subscription, gap bool) {
	if queueCap <= 0 {
		queueCap = 64
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	replay := b.replayLocked(afterSeq)
	if len(replay) > 0 {
		gap = replay[0].Seq > afterSeq+1
	} else {
		gap = b.seq > afterSeq
	}
	ch := make(chan StampedEvent, queueCap+len(replay))
	for _, se := range replay {
		ch <- se
	}
	sub = &Subscription{ch: ch, b: b}
	if b.closed {
		close(ch)
	} else {
		b.subs[sub] = struct{}{}
	}
	return sub, gap
}

// replayLocked returns the retained events with Seq > afterSeq in order.
func (b *Broadcaster) replayLocked(afterSeq int64) []StampedEvent {
	var out []StampedEvent
	appendAfter := func(evs []StampedEvent) {
		for _, se := range evs {
			if se.Seq > afterSeq {
				out = append(out, se)
			}
		}
	}
	if len(b.ring) < b.opts.Ring {
		appendAfter(b.ring)
	} else {
		appendAfter(b.ring[b.next:])
		appendAfter(b.ring[:b.next])
	}
	return out
}

// Close ends the stream: every subscriber's channel closes once its
// queued events drain, and future Trace calls are no-ops. The ring stays
// readable — late subscribers still get the replay. Idempotent.
func (b *Broadcaster) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for sub := range b.subs {
		close(sub.ch)
	}
	b.subs = nil
}

// LastSeq returns the sequence number of the most recent event (0 before
// the first).
func (b *Broadcaster) LastSeq() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Subscription is one consumer's view of the stream: a receive channel
// plus its drop ledger. Cancel when done — an abandoned subscription
// never blocks the broadcaster, but it keeps accumulating drop counts.
type Subscription struct {
	ch      chan StampedEvent
	b       *Broadcaster
	dropped atomic.Int64
}

// C is the event channel. It closes when the broadcaster closes (after
// the pending queue drains) or the subscription is canceled.
func (s *Subscription) C() <-chan StampedEvent { return s.ch }

// Dropped returns how many events this subscription missed to queue
// overflow.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Cancel detaches the subscription and closes its channel. Idempotent,
// and a no-op after the broadcaster itself closed.
func (s *Subscription) Cancel() {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	if _, ok := s.b.subs[s]; ok {
		delete(s.b.subs, s)
		close(s.ch)
	}
}
