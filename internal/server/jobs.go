package server

import (
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/deletion"
	"neuroselect/internal/obs"
	"neuroselect/internal/portfolio"
	"neuroselect/internal/solver"
)

// Job lifecycle states as reported by GET /v1/jobs/{id}.
const (
	// JobQueued: admitted, waiting for a worker.
	JobQueued = "queued"
	// JobRunning: a worker is solving it.
	JobRunning = "running"
	// JobDone: finished; the result (or error) is attached.
	JobDone = "done"
)

// job is one admitted solve: the parsed formula, its request parameters,
// and the completion slot the handler (sync) or the poll endpoint (async)
// reads. A job flows queue → worker → done exactly once.
type job struct {
	id  string // async only; "" for sync solves
	f   *cnf.Formula
	key string // cache key; "" when caching is bypassed

	timeout       time.Duration
	policy        deletion.Policy // non-nil pins the policy (bypasses the selector)
	portfolio     int             // >0 solves with an N-worker portfolio instead of one solver
	deterministic bool            // portfolio only: lockstep exchange rounds
	trace         bool
	cached        bool // completed from the result cache without solving
	shared        bool // completed by an identical in-flight solve (singleflight)

	ctx      context.Context // request ctx (sync) or server base ctx (async)
	enqueued time.Time

	// reqID is the X-Request-ID of the request that created the job,
	// immutable after admission: stamped into journal records, streamed
	// trace events, and the job view.
	reqID string
	// bcast fans the job's live trace-event stream out to SSE subscribers
	// (async jobs only; see events.go). Closed exactly once when the job
	// reaches its terminal state, which is what ends every open stream.
	bcast *obs.Broadcaster
	// progress keeps the solve's last conflict-window rollup for the live
	// `progress` object in poll bodies (async jobs only).
	progress *progressTracer

	// followers are identical keyed jobs riding this one (guarded by the
	// server's flight-table mutex, not j.mu — see flight.go).
	followers []*job

	mu        sync.Mutex
	state     string
	done      chan struct{}
	body      []byte // marshaled solveResponse on success
	errCode   int    // non-zero on failure
	errMsg    string
	leaderReq string // dedup followers: the flight leader's request id
}

func newJob(f *cnf.Formula) *job {
	return &job{f: f, state: JobQueued, done: make(chan struct{}), enqueued: time.Now()}
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
}

// succeed attaches the marshaled response body. finish() publishes it.
func (j *job) succeed(body []byte) {
	j.mu.Lock()
	j.body = body
	j.mu.Unlock()
}

// fail attaches an error outcome. finish() publishes it.
func (j *job) fail(code int, msg string) {
	j.mu.Lock()
	j.errCode, j.errMsg = code, msg
	j.mu.Unlock()
}

// finish marks the job done and wakes every waiter. A job that reaches
// the worker without an explicit outcome (impossible today) fails closed.
// The broadcaster closes after the terminal state publishes, so an event
// stream that ends always finds the final result behind it.
func (j *job) finish() {
	j.mu.Lock()
	if j.body == nil && j.errCode == 0 {
		j.errCode, j.errMsg = 500, "job finished without a result"
	}
	j.state = JobDone
	j.mu.Unlock()
	close(j.done)
	if j.bcast != nil {
		j.bcast.Close()
	}
}

// setLeaderReq records the flight leader's request id on a dedup follower.
func (j *job) setLeaderReq(id string) {
	j.mu.Lock()
	j.leaderReq = id
	j.mu.Unlock()
}

// leaderReqID returns the recorded leader request id ("" for leaders).
func (j *job) leaderReqID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.leaderReq
}

// snapshot returns the job's current state and outcome for rendering.
func (j *job) snapshot() (state string, body []byte, errCode int, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.body, j.errCode, j.errMsg
}

// view renders the job as its poll body. The same bytes serve
// GET /v1/jobs/{id} and the SSE stream's final `done` event, so the two
// are byte-identical for a finished job. The live progress object appears
// only while the job is queued/running and a window rollup exists.
func (j *job) view() jobView {
	state, body, errCode, errMsg := j.snapshot()
	v := jobView{
		ID:          j.id,
		Status:      state,
		Cached:      j.cached,
		Shared:      j.shared,
		ReqID:       j.reqID,
		LeaderReqID: j.leaderReqID(),
	}
	if state == JobDone {
		if errCode != 0 {
			v.Error = fmt.Sprintf("%d: %s", errCode, errMsg)
		} else {
			v.Result = body
		}
		return v
	}
	if j.progress != nil {
		v.Progress = j.progress.last.Load()
	}
	return v
}

// solveResponse is the JSON body of a completed solve. Field names are
// the API contract (API.md); additions must be append-only.
type solveResponse struct {
	Status  string       `json:"status"`          // "SAT" | "UNSAT" | "UNKNOWN"
	Model   []int        `json:"model,omitempty"` // DIMACS literals, SAT only
	Stop    string       `json:"stop,omitempty"`  // UNKNOWN only: why the search stopped
	Policy  policyInfo   `json:"policy"`
	Stats   solver.Stats `json:"stats"`
	Timings timings      `json:"timings"`
	Cached  bool         `json:"cached"`
	Trace   []obs.Event  `json:"trace,omitempty"` // ?trace=1 only
	// Portfolio is present only for ?portfolio= solves (append-only
	// schema extension).
	Portfolio *portfolio.WireReport `json:"portfolio,omitempty"`
}

// policyInfo mirrors portfolio.Choice for the wire.
type policyInfo struct {
	Name        string  `json:"name"`
	Prob        float64 `json:"prob"`               // model probability; -1 when inference was skipped
	Fallback    string  `json:"fallback,omitempty"` // why inference was skipped ("requested", "no-model", portfolio.Fallback*)
	InferenceNS int64   `json:"inference_ns,omitempty"`
}

// timings breaks a request's latency into its stages, all nanoseconds.
type timings struct {
	QueueNS int64 `json:"queue_ns"` // admission-queue wait
	SolveNS int64 `json:"solve_ns"` // search wall clock
	TotalNS int64 `json:"total_ns"` // enqueue → response marshaled
}

// jobView is the JSON body of GET /v1/jobs/{id} and POST /v1/jobs, and
// the data of the SSE stream's final `done` event. Append-only schema.
type jobView struct {
	ID     string          `json:"id"`
	Status string          `json:"status"` // queued | running | done
	Cached bool            `json:"cached,omitempty"`
	Shared bool            `json:"shared,omitempty"` // result produced by a deduplicated identical solve
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"` // a solveResponse once done
	// ReqID is the X-Request-ID of the submitting request; LeaderReqID is
	// set on dedup followers and names the flight leader's request.
	ReqID       string `json:"req_id,omitempty"`
	LeaderReqID string `json:"leader_req_id,omitempty"`
	// Progress is the latest conflict-window rollup of a running solve
	// (absent once done, before the first window, and for shared
	// followers, whose solve runs on the leader).
	Progress *progress `json:"progress,omitempty"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

// marshalBody encodes a solveResponse once; the same bytes serve the
// response, the cache entry, and later cache hits, so a hit is
// byte-identical to the miss that filled it.
func marshalBody(resp *solveResponse) ([]byte, error) {
	return json.Marshal(resp)
}

// jobStore tracks async jobs by id and bounds memory by forgetting the
// oldest finished jobs beyond its history cap. Queued or running jobs are
// never evicted — a client can always poll work it was promised.
type jobStore struct {
	mu      sync.Mutex
	nextID  uint64
	prefix  string // Config.BackendName + "-" in backend mode; ids become cluster-unique
	byID    map[string]*job
	history int
	doneLst *list.List // job ids in completion-registration order
}

func newJobStore(history int, prefix string) *jobStore {
	return &jobStore{byID: make(map[string]*job), prefix: prefix, history: history, doneLst: list.New()}
}

// Add registers a job and assigns its id.
func (st *jobStore) Add(j *job) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextID++
	j.id = fmt.Sprintf("%sj%08d", st.prefix, st.nextID)
	st.byID[j.id] = j
	return j.id
}

// AddReplayed registers a journal-replayed job under its original id so
// a client polling across the restart still finds it, and advances the id
// counter past it so fresh submissions cannot collide.
func (st *jobStore) AddReplayed(j *job, id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j.id = id
	st.byID[id] = j
	var n uint64
	if _, err := fmt.Sscanf(strings.TrimPrefix(id, st.prefix), "j%d", &n); err == nil && n > st.nextID {
		st.nextID = n
	}
}

// Get looks a job up by id.
func (st *jobStore) Get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.byID[id]
	return j, ok
}

// Remove forgets a job that was registered but never admitted (queue
// shed on the async path).
func (st *jobStore) Remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.byID, id)
}

// NoteDone records a completed job for history eviction and drops the
// oldest finished jobs beyond the cap. A job the store already forgot
// (Remove) takes no place in the history.
func (st *jobStore) NoteDone(j *job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.byID[j.id] != j {
		return
	}
	st.doneLst.PushBack(j.id)
	for st.doneLst.Len() > st.history {
		front := st.doneLst.Front()
		st.doneLst.Remove(front)
		delete(st.byID, front.Value.(string))
	}
}
