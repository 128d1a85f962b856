package obs

import (
	"fmt"
	"sync"
	"testing"
)

// drainSub collects everything currently queued (and any replay) until the
// channel would block or closes.
func drainSub(sub *Subscription) []StampedEvent {
	var out []StampedEvent
	for {
		select {
		case se, ok := <-sub.C():
			if !ok {
				return out
			}
			out = append(out, se)
		default:
			return out
		}
	}
}

func TestBroadcasterFanOutOrderAndSeq(t *testing.T) {
	b := NewBroadcaster(BroadcastOpts{Ring: 16})
	s1, gap1 := b.Subscribe(0, 8)
	s2, gap2 := b.Subscribe(0, 8)
	if gap1 || gap2 {
		t.Fatalf("fresh subscriptions reported a gap")
	}
	for i := 0; i < 5; i++ {
		b.Trace(&Event{Type: EventWindow, Conflicts: int64(i)})
	}
	for name, sub := range map[string]*Subscription{"s1": s1, "s2": s2} {
		got := drainSub(sub)
		if len(got) != 5 {
			t.Fatalf("%s: got %d events, want 5", name, len(got))
		}
		for i, se := range got {
			if se.Seq != int64(i+1) {
				t.Fatalf("%s: event %d has seq %d, want %d", name, i, se.Seq, i+1)
			}
			if se.Event.Conflicts != int64(i) {
				t.Fatalf("%s: event %d carries conflicts %d, want %d", name, i, se.Event.Conflicts, i)
			}
		}
	}
	if got := b.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
}

func TestBroadcasterLateSubscriberReplays(t *testing.T) {
	b := NewBroadcaster(BroadcastOpts{Ring: 16})
	for i := 0; i < 6; i++ {
		b.Trace(&Event{Type: EventWindow, Conflicts: int64(i)})
	}
	sub, gap := b.Subscribe(0, 4)
	if gap {
		t.Fatalf("replay within ring capacity reported a gap")
	}
	got := drainSub(sub)
	if len(got) != 6 {
		t.Fatalf("replayed %d events, want 6", len(got))
	}
	for i, se := range got {
		if se.Seq != int64(i+1) {
			t.Fatalf("replay out of order: event %d has seq %d", i, se.Seq)
		}
	}
}

func TestBroadcasterResumeAfterSeq(t *testing.T) {
	b := NewBroadcaster(BroadcastOpts{Ring: 16})
	for i := 0; i < 8; i++ {
		b.Trace(&Event{Type: EventWindow})
	}
	sub, gap := b.Subscribe(5, 4)
	if gap {
		t.Fatalf("resume from retained seq reported a gap")
	}
	got := drainSub(sub)
	if len(got) != 3 || got[0].Seq != 6 || got[2].Seq != 8 {
		t.Fatalf("resume after seq 5: got %+v seqs, want 6..8", got)
	}
	// Resuming from the head replays nothing and live events still arrive.
	sub2, _ := b.Subscribe(8, 4)
	if pre := drainSub(sub2); len(pre) != 0 {
		t.Fatalf("resume from head replayed %d events, want 0", len(pre))
	}
	b.Trace(&Event{Type: EventRestart})
	live := <-sub2.C()
	if live.Seq != 9 || live.Event.Type != EventRestart {
		t.Fatalf("live event after resume = %+v, want seq 9 restart", live)
	}
}

func TestBroadcasterRingEvictionGap(t *testing.T) {
	b := NewBroadcaster(BroadcastOpts{Ring: 4})
	for i := 0; i < 10; i++ {
		b.Trace(&Event{Type: EventWindow, Conflicts: int64(i)})
	}
	// Ring holds seqs 7..10; subscribing from 0 must flag the hole.
	sub, gap := b.Subscribe(0, 4)
	if !gap {
		t.Fatalf("evicted history did not report a gap")
	}
	got := drainSub(sub)
	if len(got) != 4 || got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("ring replay seqs = %v, want 7..10", got)
	}
	// Resuming from inside the evicted range also flags the gap.
	if _, gap := b.Subscribe(3, 4); !gap {
		t.Fatalf("resume from evicted seq did not report a gap")
	}
	// Resuming from a retained seq does not.
	if _, gap := b.Subscribe(7, 4); gap {
		t.Fatalf("resume from retained seq reported a gap")
	}
}

func TestBroadcasterOverflowDropsAndCounts(t *testing.T) {
	var notified int64
	b := NewBroadcaster(BroadcastOpts{
		Ring:   64,
		OnDrop: func(n int64) { notified += n },
	})
	sub, _ := b.Subscribe(0, 2) // deliberately tiny queue, never read
	for i := 0; i < 10; i++ {
		b.Trace(&Event{Type: EventWindow})
	}
	if got := sub.Dropped(); got != 8 {
		t.Fatalf("subscription dropped %d, want 8", got)
	}
	if notified != 8 {
		t.Fatalf("OnDrop saw %d, want 8", notified)
	}
	// The queued events are still intact and in order.
	got := drainSub(sub)
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("surviving queue = %+v, want seqs 1,2", got)
	}
	// And the full history is replayable from the ring despite the drops.
	replay, gap := b.Subscribe(0, 16)
	if gap {
		t.Fatalf("ring lost events it should retain")
	}
	if all := drainSub(replay); len(all) != 10 {
		t.Fatalf("ring replay has %d events, want 10", len(all))
	}
}

func TestBroadcasterCloseSemantics(t *testing.T) {
	b := NewBroadcaster(BroadcastOpts{Ring: 8})
	sub, _ := b.Subscribe(0, 4)
	b.Trace(&Event{Type: EventWindow})
	b.Close()
	b.Close() // idempotent
	// Pending events drain, then the channel closes.
	if se, ok := <-sub.C(); !ok || se.Seq != 1 {
		t.Fatalf("pending event lost on close: %+v ok=%v", se, ok)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatalf("channel still open after close")
	}
	// Tracing into a closed broadcaster is a no-op.
	b.Trace(&Event{Type: EventRestart})
	if got := b.LastSeq(); got != 1 {
		t.Fatalf("closed broadcaster advanced seq to %d", got)
	}
	// Late subscribers get the replay and an immediately closed channel.
	late, gap := b.Subscribe(0, 4)
	if gap {
		t.Fatalf("late subscribe reported gap")
	}
	if se, ok := <-late.C(); !ok || se.Seq != 1 {
		t.Fatalf("late replay = %+v ok=%v, want seq 1", se, ok)
	}
	if _, ok := <-late.C(); ok {
		t.Fatalf("late channel did not close after replay")
	}
	late.Cancel() // no-op after broadcaster close
}

func TestBroadcasterCancel(t *testing.T) {
	var notified int64
	b := NewBroadcaster(BroadcastOpts{Ring: 8, OnDrop: func(n int64) { notified += n }})
	sub, _ := b.Subscribe(0, 4)
	sub.Cancel()
	sub.Cancel() // idempotent
	if _, ok := <-sub.C(); ok {
		t.Fatalf("canceled channel still open")
	}
	// A canceled subscription no longer receives or drops.
	b.Trace(&Event{Type: EventWindow})
	if got := sub.Dropped(); got != 0 {
		t.Fatalf("canceled subscription counted %d drops", got)
	}
	if notified != 0 {
		t.Fatalf("OnDrop saw %d drops after cancel", notified)
	}
}

func TestBroadcasterStampsReqID(t *testing.T) {
	b := NewBroadcaster(BroadcastOpts{Ring: 8, ReqID: "req-42"})
	sub, _ := b.Subscribe(0, 4)
	b.Trace(&Event{Type: EventWindow})
	b.Trace(&Event{Type: EventPolicy, ReqID: "already-set"})
	got := drainSub(sub)
	if len(got) != 2 {
		t.Fatalf("got %d events, want 2", len(got))
	}
	if got[0].Event.ReqID != "req-42" {
		t.Fatalf("event req_id = %q, want req-42", got[0].Event.ReqID)
	}
	if got[1].Event.ReqID != "already-set" {
		t.Fatalf("pre-set req_id overwritten: %q", got[1].Event.ReqID)
	}
}

func TestBroadcasterConcurrent(t *testing.T) {
	b := NewBroadcaster(BroadcastOpts{Ring: 32})
	const emitters, events = 4, 200
	var wg sync.WaitGroup
	subs := make([]*Subscription, 6)
	for i := range subs {
		subs[i], _ = b.Subscribe(0, 16)
	}
	// Readers drain concurrently; two subscriptions cancel mid-stream.
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub *Subscription) {
			defer wg.Done()
			n := 0
			for range sub.C() {
				n++
				if i < 2 && n > 20 {
					sub.Cancel()
					// Drain whatever raced in before the close.
					for range sub.C() {
					}
					return
				}
			}
		}(i, sub)
	}
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				b.Trace(&Event{Type: EventWindow, Worker: e})
			}
		}(e)
	}
	// A late subscriber races Close.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sub, _ := b.Subscribe(0, 8)
		for range sub.C() {
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.Close()
	}()
	wg.Wait()
	if got := b.LastSeq(); got > emitters*events {
		t.Fatalf("seq overran: %d > %d", got, emitters*events)
	}
}

func TestBroadcasterDefaultRing(t *testing.T) {
	b := NewBroadcaster(BroadcastOpts{})
	for i := 0; i < 300; i++ {
		b.Trace(&Event{Type: EventWindow})
	}
	sub, gap := b.Subscribe(0, 300)
	if !gap {
		t.Fatalf("default ring of 256 should have evicted 44 events")
	}
	if got := len(drainSub(sub)); got != 256 {
		t.Fatalf("default ring retained %d, want 256", got)
	}
}

func ExampleBroadcaster() {
	b := NewBroadcaster(BroadcastOpts{Ring: 8, ReqID: "abc123"})
	sub, _ := b.Subscribe(0, 4)
	b.Trace(&Event{Type: EventWindow, Conflicts: 256})
	b.Close()
	for se := range sub.C() {
		fmt.Printf("seq=%d type=%s req=%s\n", se.Seq, se.Event.Type, se.Event.ReqID)
	}
	// Output: seq=1 type=window req=abc123
}
