// Package obs is the solver-wide observability layer: a structured search
// tracer threaded through the solver's cold-path boundaries, a process-wide
// metrics registry with Prometheus text and JSON exposition, and an optional
// HTTP listener serving live telemetry (/metrics, /healthz, net/http/pprof).
//
// The tracer contract is zero-cost-when-nil: every instrumented component
// guards its event construction behind a nil check on a cold path (restart,
// reduce, conflict-window boundary), so a solver built without a tracer runs
// bit-identically to one that predates the layer — the golden-trajectory and
// steady-state-allocation tests pin this.
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Event types. Every trace record carries exactly one of these in its Type
// field; the remaining fields are a union keyed by it (unused fields are
// omitted from the JSONL encoding).
const (
	// EventSolveStart opens a solve: instance shape and policy.
	EventSolveStart = "solve_start"
	// EventWindow is the per-conflict-window rollup: cumulative counters
	// plus window-local props/sec, mean glue, and trail depth.
	EventWindow = "window"
	// EventRestart marks a Luby restart.
	EventRestart = "restart"
	// EventReduce marks a clause-database reduction and the arena GC that
	// ran with it.
	EventReduce = "reduce"
	// EventSolveEnd closes a solve with its status and final counters.
	EventSolveEnd = "solve_end"
	// EventPolicy records one portfolio policy-selection decision.
	EventPolicy = "policy"
	// EventExchange records one portfolio worker's cumulative clause-
	// exchange totals at an exchange-round boundary (deterministic mode:
	// once per worker per round; free-running mode: once per worker when
	// the portfolio drains).
	EventExchange = "exchange"
)

// Event is one trace record. The struct is the JSONL schema: field tags are
// stable, additions are append-only, and consumers must tolerate unknown
// fields (the external contract is documented in API.md §2). TimeNS is
// nanoseconds since the enclosing solve started.
type Event struct {
	Type   string `json:"type"`
	TimeNS int64  `json:"t_ns"`

	// Instance shape (solve_start) and deletion policy (solve_start,
	// policy).
	Vars    int    `json:"vars,omitempty"`
	Clauses int    `json:"clauses,omitempty"`
	Policy  string `json:"policy,omitempty"`

	// Cumulative search counters (window, restart, reduce, solve_end).
	Conflicts    int64 `json:"conflicts,omitempty"`
	Decisions    int64 `json:"decisions,omitempty"`
	Propagations int64 `json:"propagations,omitempty"`
	Restarts     int64 `json:"restarts,omitempty"`
	Reductions   int64 `json:"reductions,omitempty"`
	Learned      int64 `json:"learned,omitempty"`
	Deleted      int64 `json:"deleted,omitempty"`
	LiveLearned  int   `json:"live_learned,omitempty"`
	ArenaWords   int   `json:"arena_words,omitempty"`

	// Window-local rollups (window).
	WindowConflicts int64   `json:"window_conflicts,omitempty"`
	PropsPerSec     float64 `json:"props_per_sec,omitempty"`
	MeanGlue        float64 `json:"mean_glue,omitempty"`
	TrailDepth      int     `json:"trail_depth,omitempty"`
	MaxTrail        int     `json:"max_trail,omitempty"`

	// Reduction detail (reduce).
	Candidates      int   `json:"candidates,omitempty"`
	ReduceDeleted   int   `json:"reduce_deleted,omitempty"`
	GCCompactions   int64 `json:"gc_compactions,omitempty"`
	GCLitsReclaimed int64 `json:"gc_lits_reclaimed,omitempty"`
	GCBytesMoved    int64 `json:"gc_bytes_moved,omitempty"`

	// Outcome (solve_end).
	Status string `json:"status,omitempty"`

	// Policy selection (policy).
	Prob        float64 `json:"prob,omitempty"`
	Fallback    string  `json:"fallback,omitempty"`
	InferenceNS int64   `json:"inference_ns,omitempty"`

	// Clause-exchange totals (exchange): cumulative per portfolio worker.
	Round    int   `json:"round,omitempty"`
	Worker   int   `json:"worker,omitempty"`
	Exported int64 `json:"exported,omitempty"`
	Imported int64 `json:"imported,omitempty"`
	Filtered int64 `json:"filtered,omitempty"`
	Dropped  int64 `json:"dropped,omitempty"`

	// Request correlation (streamed events only): the X-Request-ID of the
	// HTTP request that started the solve, stamped by the serving layer's
	// Broadcaster. Absent in offline JSONL traces.
	ReqID string `json:"req_id,omitempty"`
}

// Tracer receives structured search events. Implementations may retain the
// event — emitters allocate a fresh Event per call (all call sites are cold
// paths). Implementations must be safe for use from the single goroutine
// driving one solve; concurrent solves need separate tracers or an
// internally synchronized one (JSONLTracer is synchronized).
type Tracer interface {
	Trace(ev *Event)
}

// Multi fans one event stream out to several tracers. Nil entries are
// dropped; Multi() and Multi(nil) return nil, preserving the
// zero-cost-when-nil contract for callers that assemble tracers
// conditionally.
func Multi(ts ...Tracer) Tracer {
	kept := make([]Tracer, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multiTracer(kept)
}

type multiTracer []Tracer

func (m multiTracer) Trace(ev *Event) {
	for _, t := range m {
		t.Trace(ev)
	}
}

// DroppedEventsMetric is the obs-layer self-metric: trace events a sink
// lost instead of delivering, labeled by sink ("jsonl" for writes
// discarded after a sticky error).
const DroppedEventsMetric = "neuroselect_obs_dropped_events_total"

const droppedEventsHelp = "Trace events lost by an obs sink instead of delivered, by sink (jsonl: sticky write error)."

// JSONLTracer streams events as JSON Lines: one object per event, schema
// defined by the Event struct tags. It is safe for concurrent use; the
// first write error is sticky and surfaces from Flush. Events arriving
// after the stream has gone bad are counted as dropped — never silently
// discarded — readable via Dropped and exportable as the
// neuroselect_obs_dropped_events_total{sink="jsonl"} self-metric.
type JSONLTracer struct {
	mu      sync.Mutex
	w       *bufio.Writer
	err     error
	dropped int64
	drops   *Counter // nil until CountDropsIn
}

// NewJSONLTracer wraps w in a buffered JSONL event sink. Call Flush before
// closing the underlying writer.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: bufio.NewWriter(w)}
}

// CountDropsIn registers the tracer's drop count as the obs self-metric
// neuroselect_obs_dropped_events_total{sink="jsonl"} in reg. Returns t for
// chaining at construction.
func (t *JSONLTracer) CountDropsIn(reg *Registry) *JSONLTracer {
	c := reg.Counter(DroppedEventsMetric, droppedEventsHelp, Labels{"sink": "jsonl"})
	t.mu.Lock()
	t.drops = c
	t.mu.Unlock()
	return t
}

// Trace encodes one event as a JSON line. An event lost to a marshal
// failure or a (possibly sticky) write error counts as dropped.
func (t *JSONLTracer) Trace(ev *Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		t.dropLocked()
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		t.dropLocked()
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		t.dropLocked()
		return
	}
	if t.err = t.w.WriteByte('\n'); t.err != nil {
		t.dropLocked()
	}
}

func (t *JSONLTracer) dropLocked() {
	t.dropped++
	if t.drops != nil {
		t.drops.Inc()
	}
}

// Dropped returns how many events were lost to encode/write errors.
func (t *JSONLTracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Flush drains the buffer and returns the first error seen on the stream.
func (t *JSONLTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	t.err = t.w.Flush()
	return t.err
}
