package server

// Live job telemetry over Server-Sent Events: GET /v1/jobs/{id}/events
// streams the solve's obs trace events (the JSONL schema from API.md §2)
// as they happen. Each SSE frame carries the broadcaster's sequence
// number as `id:`, the event type as `event:`, and the JSON event as
// `data:`, so a disconnected client resumes with a standard
// `Last-Event-ID` header — events still in the job's replay ring are
// re-sent, older ones are acknowledged as a gap comment. The stream works
// at any point in the job's life: pre-start it waits (heartbeat comments
// keep intermediaries from timing the idle connection out), mid-solve it
// tails live events, and post-completion it replays the ring. Every
// stream terminates with a final `done` event whose data is the job's
// poll body, byte-identical to GET /v1/jobs/{id} — a client that only
// watches the stream never needs to poll. Jobs evicted from the done
// history 404 exactly like polls.
//
// The solver is never backpressured: a subscriber that reads slower than
// the solve emits has events dropped from its queue and counted
// (event_stream_events_total{outcome="dropped"}); the ring still holds
// the newest events for a later resume.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"neuroselect/internal/obs"
)

// progress is the latest conflict-window rollup of a running solve: the
// cumulative counters plus the window-local rates of the trace's window
// events. The JSON tags are the schema of the live `progress` object in
// job-poll bodies (API.md) and are append-only.
type progress struct {
	Conflicts       int64   `json:"conflicts"`
	Decisions       int64   `json:"decisions"`
	Propagations    int64   `json:"propagations"`
	Restarts        int64   `json:"restarts"`
	Learned         int64   `json:"learned"`
	WindowConflicts int64   `json:"window_conflicts"`
	PropsPerSec     float64 `json:"props_per_sec"`
	MeanGlue        float64 `json:"mean_glue"`
	TrailDepth      int     `json:"trail_depth"`
	TimeNS          int64   `json:"t_ns"` // nanoseconds since the solve started
}

// progressTracer keeps the last window event an async job's tracer chain
// saw, for its poll body. It sits beside the job's broadcaster, so polls
// and the event stream read one telemetry channel out of the solver. The
// solve's goroutine stores; any goroutine loads.
type progressTracer struct {
	last atomic.Pointer[progress]
}

// Trace implements obs.Tracer, keeping window events only.
func (t *progressTracer) Trace(ev *obs.Event) {
	if ev.Type != obs.EventWindow {
		return
	}
	t.last.Store(&progress{
		Conflicts:       ev.Conflicts,
		Decisions:       ev.Decisions,
		Propagations:    ev.Propagations,
		Restarts:        ev.Restarts,
		Learned:         ev.Learned,
		WindowConflicts: ev.WindowConflicts,
		PropsPerSec:     ev.PropsPerSec,
		MeanGlue:        ev.MeanGlue,
		TrailDepth:      ev.TrailDepth,
		TimeNS:          ev.TimeNS,
	})
}

// handleJobEvents is GET /v1/jobs/{id}/events.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok || j.bcast == nil {
		writeError(w, http.StatusNotFound, "unknown job id")
		return
	}
	var afterSeq int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			afterSeq = n
		}
	}
	sub, gap := j.bcast.Subscribe(afterSeq, s.cfg.EventQueue)
	defer sub.Cancel()
	s.m.streamSubs.Add(1)
	defer s.m.streamSubs.Add(-1)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxy hint: do not buffer the stream
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	if gap {
		// Events between Last-Event-ID and the ring's oldest entry are gone;
		// say so instead of silently skipping (comments are protocol no-ops
		// for clients that do not care).
		_, _ = io.WriteString(w, ": gap: events before the replay ring were evicted\n\n")
	}
	_ = rc.Flush()

	hb := time.NewTimer(s.cfg.SSEHeartbeat)
	defer hb.Stop()
	ctx := r.Context()
	for {
		select {
		case se, ok := <-sub.C():
			if !ok {
				// Broadcaster closed: the job is terminal. Send the final
				// summary and end the stream cleanly.
				s.writeDoneEvent(w, j)
				_ = rc.Flush()
				return
			}
			if writeSSEEvent(w, se) != nil {
				return // client gone mid-write
			}
			s.m.streamEv("sent").Inc()
			_ = rc.Flush()
		case <-hb.C:
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			_ = rc.Flush()
		case <-ctx.Done():
			return
		}
		if !hb.Stop() {
			select {
			case <-hb.C:
			default:
			}
		}
		hb.Reset(s.cfg.SSEHeartbeat)
	}
}

// writeSSEEvent frames one trace event: the broadcaster sequence number
// as the SSE id (the Last-Event-ID resume cursor), the event type as the
// SSE event name, and the JSONL-schema object as data.
func writeSSEEvent(w io.Writer, se obs.StampedEvent) error {
	data, err := json.Marshal(&se.Event)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", se.Seq, se.Event.Type, data)
	return err
}

// writeDoneEvent ends a stream with the job's terminal summary. The data
// is the poll body (jobView), marshaled identically to GET /v1/jobs/{id},
// so stream consumers and pollers see the same bytes. Its id is one past
// the last trace event — a client that reconnects with it replays nothing
// and immediately receives `done` again.
func (s *Server) writeDoneEvent(w io.Writer, j *job) {
	data, err := json.Marshal(j.view())
	if err != nil {
		return
	}
	if _, err := fmt.Fprintf(w, "id: %d\nevent: done\ndata: %s\n\n", j.bcast.LastSeq()+1, data); err != nil {
		return
	}
	s.m.streamEv("sent").Inc()
}

// ctxKeyReqID carries the request's correlation id through its context.
type ctxKey int

const ctxKeyReqID ctxKey = iota

// WithRequestID is the outermost middleware: it adopts the client's
// X-Request-ID (when well-formed) or generates one, echoes it on the
// response, and threads it through the request context — from where it
// reaches journal records, streamed trace events, job views, and the
// access log. Exported because the cluster coordinator (internal/cluster)
// runs the same middleware, so one id correlates a request across the
// routing tier and the replica that solved it.
func WithRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeReqID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKeyReqID, id)))
	})
}

// RequestIDFrom extracts the correlation id WithRequestID stored.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyReqID).(string)
	return id
}

// sanitizeReqID accepts a client-supplied id only if it is short and
// printable ASCII — anything else (header injection, control bytes,
// unbounded length) is discarded and replaced by a generated id.
func sanitizeReqID(s string) string {
	if s == "" || len(s) > 128 {
		return ""
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x21 || c > 0x7e {
			return ""
		}
	}
	return s
}

// newRequestID returns 16 hex chars of OS randomness.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not a reason to fail a solve; fall back to
		// a timestamp-derived id (uniqueness, not unguessability, is the
		// requirement here).
		return fmt.Sprintf("t-%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
