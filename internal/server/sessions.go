package server

// Warm solver sessions: the serving-layer face of the solver's incremental
// (IPASIR-style) interface. A session pins one solver.Solver to an id;
// repeated solves against it pay incremental cost — clause additions,
// assumption changes — instead of the cold construct-and-search cost the
// stateless /v1/solve path pays on every request, and the learned clauses,
// variable activities, and saved phases from earlier calls carry over.
//
// Sessions compose with a warm solver pool keyed by the canonical hash of
// the base formula (and the policy variant): deleting a session whose
// permanent clause set still equals its base formula parks the warm solver
// instead of discarding it, and a later session created for the same base
// resumes it — learned clauses included — skipping construction entirely.
// Sessions that grew permanent clauses (AddClause outside any frame) have
// diverged from their base and are dropped on close; clauses added under
// Push frames are retracted by Pop at park time, so frame use never
// poisons the pool.
//
// Sessions are deliberately NOT journaled: a solver's warm state (arena,
// activities, phases) is not serializable at a useful cost, so a restart
// loses sessions. Clients treat 404 on a session id as "recreate and
// replay"; the base-formula pool then usually makes the recreate a hit.
// This is the same durability trade the result cache makes, not the job
// journal's.
//
// Lifecycle: sessions are bounded by Config.SessionMax (LRU eviction of
// the least-recently-used idle session on overflow), expire after
// Config.SessionTTL idle, and are closed early if the solver's estimated
// footprint exceeds Config.SessionMaxMem after a solve. One solve runs at
// a time per session (409 busy on overlap). Drain refuses new session
// operations and waits for in-flight session solves like any other work.

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/solver"
)

// session is one pinned warm solver.
type session struct {
	id     string
	key    string // policy variant + canonical base hash; "" when caching disabled
	policy string
	slv    *solver.Solver

	mu sync.Mutex // held for the duration of one solve; TryLock → 409

	// extended flips when a permanent clause (outside every frame) is
	// added: the solver no longer answers for the base formula alone and
	// must not be parked. Guarded by mu.
	extended bool
	solves   int64 // guarded by mu

	// lastUsed and lruEl are guarded by the owning table's lock.
	lastUsed time.Time
	created  time.Time
	lruEl    *list.Element
}

// sessionTable is the id → session map with LRU ordering for bounded
// occupancy and idle-TTL expiry.
type sessionTable struct {
	mu     sync.Mutex
	cap    int
	prefix string // Config.BackendName + "-" in backend mode; ids become cluster-unique
	byID   map[string]*session
	ll     *list.List // front = most recently used
	nextID uint64
}

func newSessionTable(capacity int, prefix string) *sessionTable {
	return &sessionTable{cap: capacity, prefix: prefix, byID: make(map[string]*session), ll: list.New()}
}

// Add registers a session, assigning its id. When the table is at
// capacity it evicts the least-recently-used idle session first; if every
// session is mid-solve, Add refuses. The evicted session (if any) is
// returned so the caller can park its solver.
func (t *sessionTable) Add(sess *session, now time.Time) (evicted *session, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ll.Len() >= t.cap {
		evicted = t.evictLRULocked()
		if evicted == nil {
			return nil, errors.New("session table full and every session is busy")
		}
	}
	t.nextID++
	sess.id = fmt.Sprintf("%ss%08d", t.prefix, t.nextID)
	sess.created = now
	sess.lastUsed = now
	sess.lruEl = t.ll.PushFront(sess)
	t.byID[sess.id] = sess
	return evicted, nil
}

// evictLRULocked removes the least-recently-used session not currently
// solving. The evicted session's lock is held on return (the caller parks
// or drops the solver, then unlocks).
func (t *sessionTable) evictLRULocked() *session {
	for el := t.ll.Back(); el != nil; el = el.Prev() {
		sess := el.Value.(*session)
		if sess.mu.TryLock() {
			t.removeLocked(sess)
			return sess
		}
	}
	return nil
}

// Get looks a session up and marks it used.
func (t *sessionTable) Get(id string, now time.Time) (*session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sess, ok := t.byID[id]
	if !ok {
		return nil, false
	}
	sess.lastUsed = now
	t.ll.MoveToFront(sess.lruEl)
	return sess, true
}

// Alive reports whether sess is still registered. Handlers that looked a
// session up and then acquired sess.mu must re-validate with Alive before
// touching the solver: between Get and the lock, the reaper or LRU
// eviction may have removed the session and parked its solver, and a
// concurrent create may have already bound that solver to a new session.
// Membership is tracked by lruEl, which removeLocked clears under t.mu.
func (t *sessionTable) Alive(sess *session) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return sess.lruEl != nil
}

// Remove unregisters a session by id.
func (t *sessionTable) Remove(id string) (*session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sess, ok := t.byID[id]
	if ok {
		t.removeLocked(sess)
	}
	return sess, ok
}

func (t *sessionTable) removeLocked(sess *session) {
	delete(t.byID, sess.id)
	t.ll.Remove(sess.lruEl)
	sess.lruEl = nil
}

// Expired collects (and removes) every session idle longer than ttl whose
// lock could be taken; each is returned locked for the caller to close.
func (t *sessionTable) Expired(ttl time.Duration, now time.Time) []*session {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*session
	for el := t.ll.Back(); el != nil; {
		prev := el.Prev()
		sess := el.Value.(*session)
		if now.Sub(sess.lastUsed) < ttl {
			break // LRU order: everything further front is younger
		}
		if sess.mu.TryLock() {
			t.removeLocked(sess)
			out = append(out, sess)
		}
		el = prev
	}
	return out
}

// Len returns the number of live sessions.
func (t *sessionTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len()
}

// pooledSolver is one parked warm solver awaiting a session for the same
// base formula.
type pooledSolver struct {
	key    string
	policy string
	slv    *solver.Solver
	parked time.Time
}

// solverPool is the warm pool: an LRU of parked solvers keyed by policy
// variant + canonical base-formula hash. Capacity-bound; Take removes the
// most recently parked match.
type solverPool struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently parked
	byKey map[string][]*list.Element
}

func newSolverPool(capacity int) *solverPool {
	return &solverPool{cap: capacity, ll: list.New(), byKey: make(map[string][]*list.Element)}
}

// Take removes and returns the most recently parked solver for key.
func (p *solverPool) Take(key string) (*pooledSolver, bool) {
	if key == "" {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	els := p.byKey[key]
	if len(els) == 0 {
		return nil, false
	}
	el := els[len(els)-1]
	p.byKey[key] = els[:len(els)-1]
	p.ll.Remove(el)
	return el.Value.(*pooledSolver), true
}

// Park stores a warm solver, evicting the oldest entry when over
// capacity. It reports how many entries were dropped to make room.
func (p *solverPool) Park(ps *pooledSolver) (dropped int) {
	if ps.key == "" || p.cap <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	el := p.ll.PushFront(ps)
	p.byKey[ps.key] = append(p.byKey[ps.key], el)
	for p.ll.Len() > p.cap {
		last := p.ll.Back()
		p.removeLocked(last)
		dropped++
	}
	return dropped
}

// DropOlderThan evicts parked solvers idle past ttl.
func (p *solverPool) DropOlderThan(ttl time.Duration, now time.Time) (dropped int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for el := p.ll.Back(); el != nil; {
		prev := el.Prev()
		if now.Sub(el.Value.(*pooledSolver).parked) < ttl {
			break
		}
		p.removeLocked(el)
		dropped++
		el = prev
	}
	return dropped
}

func (p *solverPool) removeLocked(el *list.Element) {
	ps := el.Value.(*pooledSolver)
	els := p.byKey[ps.key]
	for i, e := range els {
		if e == el {
			p.byKey[ps.key] = append(els[:i], els[i+1:]...)
			break
		}
	}
	if len(p.byKey[ps.key]) == 0 {
		delete(p.byKey, ps.key)
	}
	p.ll.Remove(el)
}

// Len returns the number of parked solvers.
func (p *solverPool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ll.Len()
}

// sessionReaper ticks until the server closes, expiring idle sessions and
// stale pool entries. The tick is a fraction of the TTL so short test TTLs
// expire promptly without a hot loop.
func (s *Server) sessionReaper() {
	defer s.wg.Done()
	tick := s.cfg.SessionTTL / 4
	if tick < 25*time.Millisecond {
		tick = 25 * time.Millisecond
	}
	if tick > 30*time.Second {
		tick = 30 * time.Second
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-tk.C:
			for _, sess := range s.sessions.Expired(s.cfg.SessionTTL, now) {
				s.m.sessionEv("expire").Inc()
				s.closeSession(sess, true)
				sess.mu.Unlock()
			}
			if n := s.pool.DropOlderThan(s.cfg.SessionTTL, time.Now()); n > 0 {
				s.m.sessionEv("drop").Add(int64(n))
			}
		}
	}
}

// closeSession disposes of a removed session's solver: parked into the
// warm pool when it still answers for its base formula, dropped otherwise.
// Open frames are popped first so frame-local clauses never enter the
// pool. Caller holds sess.mu.
func (s *Server) closeSession(sess *session, mayPark bool) {
	if !mayPark || sess.extended || sess.key == "" {
		return
	}
	for sess.slv.FrameDepth() > 0 {
		sess.slv.Pop()
	}
	s.m.sessionEv("park").Inc()
	if n := s.pool.Park(&pooledSolver{key: sess.key, policy: sess.policy, slv: sess.slv, parked: time.Now()}); n > 0 {
		s.m.sessionEv("drop").Add(int64(n))
	}
}

// sessionCreateResponse is the POST /v1/sessions body.
type sessionCreateResponse struct {
	ID      string `json:"id"`
	Pool    string `json:"pool"` // hit (warm solver resumed) or miss (built cold)
	Policy  string `json:"policy"`
	Vars    int    `json:"vars"`
	Clauses int    `json:"clauses"`
}

// sessionSolveRequest is the JSON body of POST /v1/sessions/{id}/solve.
// Operations apply in a fixed order — pop frames, push frames, add
// clauses, then solve under the assumptions — so one request can express
// the common retract-extend-query cycle atomically: the whole request is
// validated (literals, clause sizes, frame depth) before the first
// operation touches the solver, so a 400 never leaves a partially
// applied step behind.
type sessionSolveRequest struct {
	Pop         int     `json:"pop,omitempty"`
	Push        int     `json:"push,omitempty"`
	Add         [][]int `json:"add,omitempty"`
	Assumptions []int   `json:"assumptions,omitempty"`
	Timeout     string  `json:"timeout,omitempty"`
}

// sessionSolveResponse is the solve result. Stats are cumulative for the
// session's solver, so deltas between calls measure the incremental cost.
type sessionSolveResponse struct {
	Status         string       `json:"status"`
	Model          []int        `json:"model,omitempty"`
	Core           []int        `json:"core,omitempty"`
	Stop           string       `json:"stop,omitempty"`
	FrameDepth     int          `json:"frame_depth"`
	Stats          solver.Stats `json:"stats"`
	FootprintBytes int64        `json:"footprint_bytes"`
	Evicted        bool         `json:"evicted,omitempty"` // memory cap closed the session
	Timings        timings      `json:"timings"`
}

// sessionView is the GET /v1/sessions/{id} body.
type sessionView struct {
	ID             string `json:"id"`
	Policy         string `json:"policy"`
	Solves         int64  `json:"solves"`
	FrameDepth     int    `json:"frame_depth"`
	UserVars       int    `json:"vars"`
	AddedClauses   int64  `json:"added_clauses"`
	FootprintBytes int64  `json:"footprint_bytes"`
	IdleMS         int64  `json:"idle_ms"`
}

// handleSessionCreate is POST /v1/sessions: parse the base formula, take a
// warm solver from the pool (hit) or build one (miss), register the
// session. ?policy= pins the deletion policy (sessions do not run model
// inference — the policy is fixed for the session's lifetime).
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if !s.admitSession(w) {
		return
	}
	defer s.pending.Done()
	f, herr := s.readFormula(w, r)
	if herr != nil {
		writeError(w, herr.code, herr.msg)
		return
	}
	var err error
	pol := deletion.Policy(deletion.DefaultPolicy{})
	switch v := r.URL.Query().Get("policy"); v {
	case "", "auto", "default":
	default:
		if pol, err = deletion.ByName(v); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	key := ""
	if s.cfg.CacheSize > 0 {
		key = "session-" + pol.Name() + ":" + CanonicalHash(f)
	}

	start := time.Now()
	poolState := "miss"
	var slv *solver.Solver
	if ps, ok := s.pool.Take(key); ok {
		poolState = "hit"
		s.m.sessionEv("hit").Inc()
		slv = ps.slv
	} else {
		s.m.sessionEv("miss").Inc()
		slv, err = solver.New(f, dataset.SolveOptions(pol, 0))
		if err != nil {
			writeError(w, http.StatusBadRequest, "build solver: "+err.Error())
			return
		}
	}
	s.m.sessionSec("create").Observe(time.Since(start).Seconds())

	sess := &session{key: key, policy: pol.Name(), slv: slv}
	evicted, err := s.sessions.Add(sess, time.Now())
	if err != nil {
		// Hand the solver back to the pool rather than wasting the warmth.
		// The session was never published, so the lock is uncontended; it is
		// taken anyway to honor closeSession's locking contract.
		sess.mu.Lock()
		s.closeSession(sess, true)
		sess.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if evicted != nil {
		s.m.sessionEv("evict").Inc()
		s.closeSession(evicted, true)
		evicted.mu.Unlock()
	}
	s.m.sessionEv("create").Inc()
	writeJSON(w, http.StatusCreated, sessionCreateResponse{
		ID: sess.id, Pool: poolState, Policy: pol.Name(),
		Vars: f.NumVars, Clauses: len(f.Clauses),
	})
}

// stepLitError says why literal l in a session step's clause or
// assumptions (where) is not a cnf.Lit, or returns "" when it is one: 0 is
// the DIMACS terminator, and a magnitude above cnf.MaxVarIndex would wrap
// in the int32 conversion.
func stepLitError(l int, where string) string {
	switch {
	case l == 0:
		return "zero literal in " + where
	case l < -cnf.MaxVarIndex || l > cnf.MaxVarIndex:
		return fmt.Sprintf("literal %d out of range in %s: variables are numbered 1..%d", l, where, cnf.MaxVarIndex)
	}
	return ""
}

// handleSessionSolve is POST /v1/sessions/{id}/solve: one incremental
// step — pop, push, add, solve under assumptions — on the pinned solver.
func (s *Server) handleSessionSolve(w http.ResponseWriter, r *http.Request) {
	if !s.admitSession(w) {
		return
	}
	defer s.pending.Done()
	start := time.Now()
	sess, ok := s.sessions.Get(r.PathValue("id"), start)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session id")
		return
	}
	var req sessionSolveRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req); err != nil {
		if herr := s.tooLarge(err); herr != nil {
			writeError(w, herr.code, herr.msg)
			return
		}
		writeError(w, http.StatusBadRequest, "parse request: "+err.Error())
		return
	}
	if req.Pop < 0 || req.Push < 0 {
		writeError(w, http.StatusBadRequest, "pop and push must be non-negative")
		return
	}
	if herr := s.tooManyVars(req.Push); herr != nil {
		// Each frame is a variable; the full count is checked under the lock.
		writeError(w, herr.code, herr.msg)
		return
	}
	timeout, herr := s.solveTimeout(req.Timeout)
	if herr != nil {
		writeError(w, herr.code, herr.msg)
		return
	}
	// Validate everything that does not need solver state before taking the
	// session lock, and the frame-depth and variable-count bounds right
	// after taking it, so a rejected request mutates nothing: the step is
	// all-or-nothing, never a committed prefix of its operations.
	add := make([]cnf.Clause, len(req.Add))
	for i, raw := range req.Add {
		if len(raw) > solver.MaxAddClauseLen {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("clause of %d literals exceeds the limit of %d", len(raw), solver.MaxAddClauseLen))
			return
		}
		c := make(cnf.Clause, len(raw))
		for j, l := range raw {
			if msg := stepLitError(l, "clause"); msg != "" {
				writeError(w, http.StatusBadRequest, msg)
				return
			}
			c[j] = cnf.Lit(l)
		}
		add[i] = c
	}
	assumptions := make([]cnf.Lit, len(req.Assumptions))
	for i, l := range req.Assumptions {
		if msg := stepLitError(l, "assumptions"); msg != "" {
			writeError(w, http.StatusBadRequest, msg)
			return
		}
		assumptions[i] = cnf.Lit(l)
	}

	if !sess.mu.TryLock() {
		writeError(w, http.StatusConflict, "session is busy with another solve")
		return
	}
	defer sess.mu.Unlock()
	if !s.sessions.Alive(sess) {
		// Removed (reaper, LRU eviction, or delete) between Get and the
		// lock; the solver may already be parked or serving a new session.
		writeError(w, http.StatusNotFound, "unknown session id")
		return
	}
	if req.Pop > sess.slv.FrameDepth() {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("pop %d with %d open frames", req.Pop, sess.slv.FrameDepth()))
		return
	}
	if herr := s.tooManyVars(sess.slv.VarsAfter(req.Push, add)); herr != nil {
		writeError(w, herr.code, herr.msg)
		return
	}

	for i := 0; i < req.Pop; i++ {
		sess.slv.Pop()
	}
	for i := 0; i < req.Push; i++ {
		sess.slv.Push()
	}
	for _, c := range add {
		if err := sess.slv.AddClause(c); err != nil {
			// Unreachable after the up-front checks; fail loudly if the
			// solver grows a new rejection path.
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}
	if len(add) > 0 && sess.slv.FrameDepth() == 0 {
		sess.extended = true
	}

	// The step's context ends at its timeout, when the client goes away,
	// or when the server closes, so none of them holds the session past a
	// poll stride.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()
	solveStart := time.Now()
	st, core := sess.slv.SolveUnderAssumptionsContext(ctx, assumptions)
	solveNS := time.Since(solveStart).Nanoseconds()
	stop := sess.slv.BudgetExhausted()
	sess.solves++
	s.m.sessionSec("incremental").Observe(float64(solveNS) / 1e9)
	s.m.solves(sess.policy, st.String()).Inc()

	resp := &sessionSolveResponse{
		Status:         st.String(),
		FrameDepth:     sess.slv.FrameDepth(),
		Stats:          sess.slv.Stats(),
		FootprintBytes: sess.slv.Footprint(),
		Timings:        timings{SolveNS: solveNS, TotalNS: time.Since(start).Nanoseconds()},
	}
	switch st {
	case solver.Sat:
		resp.Model = modelLits(sess.slv.Model(), sess.slv.UserVars())
	case solver.Unsat:
		resp.Core = make([]int, len(core))
		for i, l := range core {
			resp.Core[i] = int(l)
		}
	case solver.Unknown:
		resp.Stop = stopReason(stop)
	}
	if resp.FootprintBytes > s.cfg.SessionMaxMem {
		// Over the memory budget: this solve still answers, but the
		// session closes and the solver is dropped (never parked — the
		// pool would inherit the oversized arena).
		resp.Evicted = true
		s.m.sessionEv("memcap").Inc()
		s.sessions.Remove(sess.id)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionInfo is GET /v1/sessions/{id}.
func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.sessions.mu.Lock()
	sess, ok := s.sessions.byID[r.PathValue("id")]
	var idle time.Duration
	if ok {
		idle = now.Sub(sess.lastUsed) // info does not refresh the TTL
	}
	s.sessions.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session id")
		return
	}
	if !sess.mu.TryLock() {
		writeError(w, http.StatusConflict, "session is busy with another solve")
		return
	}
	defer sess.mu.Unlock()
	if !s.sessions.Alive(sess) {
		// Removed between the lookup and the lock (see handleSessionSolve).
		writeError(w, http.StatusNotFound, "unknown session id")
		return
	}
	writeJSON(w, http.StatusOK, sessionView{
		ID:             sess.id,
		Policy:         sess.policy,
		Solves:         sess.solves,
		FrameDepth:     sess.slv.FrameDepth(),
		UserVars:       sess.slv.UserVars(),
		AddedClauses:   sess.slv.Stats().AddedClauses,
		FootprintBytes: sess.slv.Footprint(),
		IdleMS:         idle.Milliseconds(),
	})
}

// handleSessionDelete is DELETE /v1/sessions/{id}: close the session,
// parking the warm solver for reuse when it still answers for its base
// formula.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Remove(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session id")
		return
	}
	sess.mu.Lock()
	s.m.sessionEv("close").Inc()
	s.closeSession(sess, true)
	sess.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}
