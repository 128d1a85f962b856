// Package solver implements a conflict-driven clause-learning (CDCL) SAT
// solver in the style of Kissat/MiniSat: two-watched-literal propagation,
// EVSIDS decision heuristic with phase saving, first-UIP conflict analysis
// with recursive clause minimization, Luby restarts, and a tiered learned-
// clause database reduced periodically under a pluggable deletion policy.
//
// The solver tracks, per variable, how often Boolean constraint propagation
// assigned it since the last clause deletion; this feeds the paper's Eq. 2
// propagation-frequency deletion criterion, and a cumulative counter feeds
// the Figure 3 distribution.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/deletion"
	"neuroselect/internal/obs"
)

// Status is the outcome of a solve call.
type Status int8

const (
	// Unknown means a resource budget (conflicts or propagations) expired.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula was proven unsatisfiable.
	Unsat
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// Options configures solver behaviour. The zero value is usable; New fills
// unset fields with defaults tuned for the laptop-scale instances of this
// reproduction.
type Options struct {
	// Policy ranks learned clauses during reduction. Default: the Kissat
	// default policy (glue, then size).
	Policy deletion.Policy
	// Alpha is the Eq. 2 threshold factor (paper: 4/5).
	Alpha float64
	// MaxConflicts aborts the search with Unknown after this many conflicts
	// (0 = unlimited). It is the reproduction's analogue of the paper's
	// 5,000-second timeout.
	MaxConflicts int64
	// MaxPropagations aborts with Unknown after this many propagations
	// (0 = unlimited).
	MaxPropagations int64
	// RestartBase scales the Luby restart sequence (default 128 conflicts).
	RestartBase int64
	// ReduceFirst is the conflict count before the first reduction
	// (default 600).
	ReduceFirst int64
	// ReduceInc is the additive growth of the reduction interval
	// (default 300).
	ReduceInc int64
	// ReduceFraction is the fraction of reducible clauses deleted per
	// reduction (default 0.5).
	ReduceFraction float64
	// InitialPhase is the saved-phase default for unassigned variables
	// (false, matching solvers that prefer negative polarity).
	InitialPhase bool
	// Proof, when non-nil, receives a DRAT proof stream: every learned
	// clause as an addition and every reduced clause as a deletion. For
	// UNSAT runs the stream (followed by unit propagation on the remaining
	// set) certifies the result; see the drat package's checker.
	Proof ProofLogger
	// Tracer, when non-nil, receives structured search events at the
	// solver's cold-path boundaries: solve start/end, every restart, every
	// reduction (with arena-GC detail), and a rollup every TraceWindow
	// conflicts (props/sec, mean glue, trail depth). A nil Tracer is
	// zero-cost: no event is constructed, no counter beyond Stats is
	// maintained, and the search trajectory is bit-identical either way.
	Tracer obs.Tracer
	// TraceWindow is the conflict count per rollup window (default 256;
	// meaningful only with Tracer set).
	TraceWindow int64
	// Export, when non-nil, receives every learned clause (DIMACS literals
	// plus its glue) synchronously from the learn path. The slice is a
	// reusable solver-owned scratch buffer, valid only for the duration of
	// the call — the hook must copy what it keeps. Used by the parallel
	// portfolio's clause exchange; a nil Export costs nothing.
	Export func(lits []cnf.Lit, glue int)
	// Import, when non-nil, is drained at every restart boundary of every
	// solve (including before the first search cycle): the returned batch
	// is installed into the learned-clause database at decision level zero
	// (see SharedClause), so an assumption solve gives up its kept prefix
	// for the drain and re-descends it. An imported empty clause decides
	// UNSAT; imported units are enqueued and propagated immediately.
	Import func() []SharedClause
	// ActivitySeed, when non-zero, deterministically perturbs the initial
	// variable activities with tiny pseudo-random values (xorshift from the
	// seed), so portfolio workers start their searches in different corners
	// of the tree. Zero (the default) leaves all activities at zero — the
	// historical trajectory.
	ActivitySeed uint64

	// disableBinaryWatch turns off the inlined binary-clause watch
	// specialization, forcing binaries through the generic arena path.
	// Test-only: the search must be bit-identical either way.
	disableBinaryWatch bool
	// disableAssumptionPrefixKeep restores the historical restart behavior
	// of assumption solving: backtrack to level zero and re-enqueue (and
	// re-propagate) the whole assumption prefix after every restart, instead
	// of cancelling only to the prefix boundary. Test-only: used to measure
	// the redundant propagations the prefix-keeping restart saves.
	disableAssumptionPrefixKeep bool
}

// ProofLogger receives clause additions and deletions in DIMACS literals;
// drat.Writer implements it.
type ProofLogger interface {
	AddClause(lits []cnf.Lit)
	DeleteClause(lits []cnf.Lit)
}

// Fixed search settings: nothing in the reproduction varies them.
const (
	// varDecay is the EVSIDS activity decay factor.
	varDecay = 0.95
	// clauseDecay is the clause-activity decay factor.
	clauseDecay = 0.999
	// tier1Glue is the glue at or below which a learned clause is
	// non-reducible and always kept, as in Kissat's tier-1.
	tier1Glue = 2
	// pollStride is the propagation stride between context polls inside
	// BCP: it bounds cancellation latency even when the search produces
	// no conflicts.
	pollStride = 2048
)

func (o *Options) fillDefaults() {
	if o.Policy == nil {
		o.Policy = deletion.DefaultPolicy{}
	}
	if o.Alpha == 0 {
		o.Alpha = deletion.DefaultAlpha
	}
	if o.RestartBase == 0 {
		o.RestartBase = 128
	}
	if o.ReduceFirst == 0 {
		o.ReduceFirst = 600
	}
	if o.ReduceInc == 0 {
		o.ReduceInc = 300
	}
	if o.ReduceFraction == 0 {
		o.ReduceFraction = 0.5
	}
	if o.TraceWindow == 0 {
		o.TraceWindow = 256
	}
}

// Stats aggregates search counters. The JSON tags are the schema of
// satsolve's -stats-json output and are append-only.
type Stats struct {
	Decisions       int64 `json:"decisions"`
	Propagations    int64 `json:"propagations"`
	Conflicts       int64 `json:"conflicts"`
	Restarts        int64 `json:"restarts"`
	Reductions      int64 `json:"reductions"`
	Learned         int64 `json:"learned"` // learned clauses added
	Deleted         int64 `json:"deleted"` // learned clauses deleted by reduction
	UnitsLearned    int64 `json:"units_learned"`
	BinariesLearned int64 `json:"binaries_learned"`
	Imported        int64 `json:"imported"`       // foreign clauses installed via Options.Import
	AddedClauses    int64 `json:"added_clauses"`  // clauses installed via the incremental AddClause API
	MinimizedLits   int64 `json:"minimized_lits"` // literals removed by clause minimization
	MaxTrail        int   `json:"max_trail"`
	// Arena-GC counters: reduce-time mark-and-compact passes over the
	// learned region of the clause arena.
	GCCompactions   int64 `json:"gc_compactions"`    // compaction passes run
	GCLitsReclaimed int64 `json:"gc_lits_reclaimed"` // literal words of deleted clauses reclaimed
	GCBytesMoved    int64 `json:"gc_bytes_moved"`    // bytes of surviving clauses slid down
}

// watcher is one watch-list entry. ref is the watched clause's cref; for
// binary clauses the watchBinary bit is set and blocker is the clause's
// other literal, so BCP on binaries never reads the arena. For longer
// clauses blocker is a literal of the clause whose truth satisfies it
// (the classic MiniSat blocking literal).
type watcher struct {
	ref     uint32
	blocker lit
}

// Solver is a CDCL SAT solver. The variable count is fixed by the formula
// at construction but may grow through the incremental interface
// (incremental.go): AddClause introduces new user variables, and Push
// allocates internal activation variables that are invisible to callers.
type Solver struct {
	opts Options

	numVars int // internal variables (user variables + activation variables)
	uvars   int // user-visible variables; == numVars until Push diverges them

	// User↔internal variable maps. Both are nil while the mapping is the
	// identity (no Push has ever run); see materializeVarMaps. i2u[v] is -1
	// for activation variables, which have no user-visible number.
	u2i []int32
	i2u []int32

	// frames is the stack of activation variables opened by Push; the top
	// frame guards every clause added since the matching Push, and every
	// solve assumes all of them true.
	frames []int

	// arena is the flat clause store (see arena.go for the layout);
	// problemEnd is the boundary below which clauses never move or die.
	arena      []lit
	problemEnd cref
	clauseAct  []float64 // learned-clause activities, indexed by actSlot

	clauses []cref // problem clauses, in arena order
	learned []cref // learned clauses, in arena order

	watches [][]watcher // indexed by lit

	// vals holds every literal's truth value, indexed by literal, so BCP
	// reads a value with one load and no branch on sign: an assigned
	// variable's two literals hold lTrue and lFalse, an unassigned one's
	// both hold lUndef.
	vals   []lbool // by lit
	level  []int32 // by var
	reason []cref  // by var; crefUndef for decisions and unassigned vars

	trail    []lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	clsInc   float64
	heap     *varHeap
	phase    []bool

	// propFreq counts BCP assignments per variable since the last clause
	// deletion (Eq. 2's f_v); propFreqTotal is cumulative (Figure 3).
	propFreq      []uint64
	propFreqTotal []uint64

	seen      []bool
	analyzeTS []int32 // timestamps for glue computation
	analyzeCt int32

	// Scratch buffers reused across conflicts/reductions so steady-state
	// analysis and reduction are allocation-free.
	addBuf      []lit
	learntBuf   []lit
	exportBuf   []cnf.Lit
	minimizeExt []int
	redStack    []redFrame
	redMarked   []int
	redCand     []cref
	redScores   []uint64
	redSort     reduceSorter

	// Assumption-solving scratch (assume.go): the internal assumption
	// prefix, the per-literal assumption marks, the final-conflict DFS
	// stack, the list of seen[] entries to clear, and the returned core.
	// All reused across calls so steady-state assumption solving is
	// allocation-free; a returned core is valid until the next solve or
	// AddClause call on this solver.
	assumeBuf  []lit
	assumpMark []bool // indexed by lit; sized with vals (New, ensureVars)
	finalStack []lit
	seenClear  []int
	coreBuf    []cnf.Lit

	stats  Stats
	ok     bool // false once top-level conflict is found
	budget error

	// ctx is the cancellation context of the current SolveContext call;
	// nextPoll is the propagation count at which BCP polls checkStop next.
	ctx      context.Context
	nextPoll int64

	reduceLimit int64

	// Conflict-window trace state, touched only when opts.Tracer is
	// non-nil (the zero-cost-when-nil contract).
	traceStart time.Time // solve start; event timestamps are relative to it
	winStart   time.Time // wall clock at the last window boundary
	winGlue    int64     // summed glue of clauses learned this window
	winConfs   int64     // cumulative conflicts at the last boundary
	winProps   int64     // cumulative propagations at the last boundary
	nextWindow int64     // conflict count that closes the current window

	model cnf.Assignment
}

// ErrBudget is wrapped by solve results that ran out of a resource budget.
var ErrBudget = errors.New("solver: resource budget exhausted")

// Stop causes. Every Unknown result stops for exactly one of these
// reasons; all wrap ErrBudget so existing errors.Is(err, ErrBudget)
// checks keep working, and each is individually matchable to tell a
// conflict/propagation budget from a wall-clock deadline or cancellation.
var (
	// ErrConflictBudget: Options.MaxConflicts expired.
	ErrConflictBudget = fmt.Errorf("%w: conflicts", ErrBudget)
	// ErrPropagationBudget: Options.MaxPropagations expired.
	ErrPropagationBudget = fmt.Errorf("%w: propagations", ErrBudget)
	// ErrDeadline: the solve context's deadline passed.
	ErrDeadline = fmt.Errorf("%w: deadline", ErrBudget)
	// ErrCanceled: the solve context was canceled.
	ErrCanceled = fmt.Errorf("%w: canceled", ErrBudget)
)

// ErrSolvePanic wraps a panic recovered during a solve; the result is
// reported as an error-carrying Unknown instead of crashing the caller.
var ErrSolvePanic = errors.New("solver: panic recovered during solve")

// New builds a solver for the formula. Empty clauses make the solver start
// in the unsatisfiable state; unit clauses are enqueued at level zero.
func New(f *cnf.Formula, opts Options) (*Solver, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	opts.fillDefaults()
	n := f.NumVars
	s := &Solver{
		opts:          opts,
		numVars:       n,
		uvars:         n,
		watches:       make([][]watcher, 2*n),
		vals:          make([]lbool, 2*n),
		assumpMark:    make([]bool, 2*n),
		level:         make([]int32, n),
		reason:        make([]cref, n),
		activity:      make([]float64, n),
		varInc:        1.0,
		clsInc:        1.0,
		phase:         make([]bool, n),
		propFreq:      make([]uint64, n),
		propFreqTotal: make([]uint64, n),
		seen:          make([]bool, n),
		analyzeTS:     make([]int32, n),
		ok:            true,
		reduceLimit:   opts.ReduceFirst,
	}
	for i := range s.reason {
		s.reason[i] = crefUndef
	}
	for i := range s.phase {
		s.phase[i] = opts.InitialPhase
	}
	if opts.ActivitySeed != 0 {
		// Tiny xorshift64 perturbation: large enough to break the initial
		// all-zero tie, small enough that a handful of real bumps (varInc
		// starts at 1.0) dominates it immediately.
		x := opts.ActivitySeed
		for v := range s.activity {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s.activity[v] = float64(x%(1<<20)) * 1e-12
		}
	}
	s.heap = newVarHeap(&s.activity, n)
	for v := 0; v < n; v++ {
		s.heap.push(v)
	}
	for _, c := range f.Clauses {
		buf := s.addBuf[:0]
		for _, l := range c {
			buf = append(buf, fromCNF(l))
		}
		if _, err := s.installRoot(buf, 0); err != nil {
			return nil, err
		}
	}
	s.problemEnd = cref(len(s.arena))
	return s, nil
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return s.numVars }

// Stats returns a copy of the search counters.
func (s *Solver) Stats() Stats { return s.stats }

// PropagationFrequencies returns the cumulative per-variable BCP assignment
// counts (1-based indexing to match cnf variables; index 0 is unused). This
// is the data behind the paper's Figure 3.
func (s *Solver) PropagationFrequencies() []uint64 {
	out := make([]uint64, s.numVars+1)
	copy(out[1:], s.propFreqTotal)
	return out
}

// Model returns the satisfying assignment found by the last Solve call that
// returned Sat. Index 0 is unused.
func (s *Solver) Model() cnf.Assignment { return s.model }

// LearnedClauseCount returns the number of live learned clauses. The arena
// GC reclaims deleted clauses at reduce time, so every indexed clause is
// live.
func (s *Solver) LearnedClauseCount() int { return len(s.learned) }

// installRoot is the one level-zero clause install, shared by New
// (problem clauses), AddClause (incremental clauses) and importClause
// (portfolio exchange). buf holds the clause in internal literals, in the
// s.addBuf scratch; normalization sorts it in place — ascending internal
// order is (variable, positive-first), the order cnf.Clause.Normalize
// produces — so no per-clause copy is allocated. Duplicates are dropped,
// and a tautology or a clause already satisfied at the root is skipped,
// as is every clause once the solver is unsatisfiable. Root-false
// literals are stripped. An empty survivor makes the solver
// unsatisfiable; a unit is enqueued and propagated. A longer survivor
// becomes a problem clause when glue is 0 and otherwise a learned clause
// under glue, capped at the clause length; one over maxClauseSize is
// refused with an error and nothing is installed.
//
// It must run at decision level zero, where every assignment is
// permanent. n is the survivor's length, or -1 when the clause was
// skipped; the callers' counters key off it.
func (s *Solver) installRoot(buf []lit, glue int) (n int, err error) {
	s.addBuf = buf
	if !s.ok {
		return -1, nil
	}
	sortLits(buf)
	// Duplicates and complementary pairs are adjacent after sorting.
	norm := buf[:0]
	prev := litUndef
	for _, il := range buf {
		if il == prev {
			continue
		}
		if il == prev.not() {
			return -1, nil // tautology
		}
		prev = il
		norm = append(norm, il)
	}
	lits := norm[:0]
	for _, il := range norm {
		switch s.value(il) {
		case lTrue:
			return -1, nil // satisfied at the root
		case lFalse:
			continue // dead at the root
		default:
			lits = append(lits, il)
		}
	}
	switch len(lits) {
	case 0:
		s.ok = false
		return 0, nil
	case 1:
		if !s.enqueue(lits[0], crefUndef) || s.propagate() != crefUndef {
			s.ok = false
		}
		return 1, nil
	}
	if len(lits) > maxClauseSize {
		return len(lits), fmt.Errorf("solver: clause of %d literals exceeds the arena limit of %d", len(lits), maxClauseSize)
	}
	if glue == 0 {
		c := s.allocClause(lits, false, 0, 0)
		s.clauses = append(s.clauses, c)
		s.attach(c)
	} else {
		c := s.allocClause(lits, true, min(glue, len(lits)), s.clsInc)
		s.learned = append(s.learned, c)
		s.attach(c)
	}
	return len(lits), nil
}

// attach installs the clause's two watchers. Binary clauses are inlined
// into the watcher (watchBinary tag, blocker = the other literal) so BCP
// resolves them without reading the arena.
func (s *Solver) attach(c cref) {
	cls := s.clauseLits(c)
	ref := uint32(c)
	if len(cls) == 2 && !s.opts.disableBinaryWatch {
		ref |= watchBinary
	}
	s.watches[cls[0].not()] = append(s.watches[cls[0].not()], watcher{ref, cls[1]})
	s.watches[cls[1].not()] = append(s.watches[cls[1].not()], watcher{ref, cls[0]})
}

// value returns the current truth value of a literal.
func (s *Solver) value(l lit) lbool { return s.vals[l] }

// decisionLevel returns the current decision level.
func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// enqueue assigns literal l with the given reason clause (crefUndef for
// decisions and top-level units). It reports false if l is already false.
func (s *Solver) enqueue(l lit, from cref) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.v()
	s.vals[l] = lTrue
	s.vals[l.not()] = lFalse
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	if len(s.trail) > s.stats.MaxTrail {
		s.stats.MaxTrail = len(s.trail)
	}
	if from != crefUndef {
		s.stats.Propagations++
		s.propFreq[v]++
		s.propFreqTotal[v]++
	}
	return true
}

// cancelUntil backtracks to the given decision level, unassigning variables
// and saving phases.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.v()
		s.phase[v] = !l.neg()
		s.vals[l] = lUndef
		s.vals[l.not()] = lUndef
		s.reason[v] = crefUndef
		if !s.heap.contains(v) {
			s.heap.push(v)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// bumpVar increases a variable's activity, rescaling on overflow.
func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.heap.rebuild()
	}
	s.heap.update(v)
}

func (s *Solver) decayVar() { s.varInc /= varDecay }

func (s *Solver) bumpClause(c cref) {
	slot := s.actSlot(c)
	s.clauseAct[slot] += s.clsInc
	if s.clauseAct[slot] > 1e100 {
		for i := range s.clauseAct {
			s.clauseAct[i] *= 1e-100
		}
		s.clsInc *= 1e-100
	}
}

func (s *Solver) decayClause() { s.clsInc /= clauseDecay }

// Solve runs the CDCL search until the formula is decided or a budget
// expires. Open Push frames are honored: their clauses constrain the
// answer exactly as they do for SolveUnderAssumptions.
func (s *Solver) Solve() Status { return s.SolveContext(context.Background()) }

// SolveContext is Solve under a context: cancellation and the context
// deadline abort the search with Unknown, with the cause (ErrCanceled or
// ErrDeadline) reported by BudgetExhausted. The context is polled once
// per conflict and every 2048 propagations, so a stop lands within one
// such stride even in a conflict-free propagation chain.
func (s *Solver) SolveContext(ctx context.Context) Status {
	t := s.opts.Tracer
	if t != nil {
		ev := &obs.Event{Type: obs.EventSolveStart, Vars: s.numVars, Clauses: len(s.clauses)}
		if s.opts.Policy != nil {
			ev.Policy = s.opts.Policy.Name()
		}
		t.Trace(ev)
	}
	// With no frame open the prefix is empty and the solve is resumable;
	// open frames contribute their activation literals and make it scoped.
	st, _ := s.solve(ctx, s.assumptionPrefix(nil), len(s.frames) > 0)
	if t != nil {
		ev := s.traceEvent(obs.EventSolveEnd)
		ev.Status = st.String()
		t.Trace(ev)
	}
	return st
}

// solve is the restart driver behind every entry point: each cycle drains
// Options.Import at decision level zero, then runs search under the
// prefix and the next Luby conflict limit, counting and tracing every
// restart. It also opens the first conflict window for the tracer.
//
// The call's context is polled by checkStop until the call returns. A stop
// it raises (ErrDeadline or ErrCanceled) ends this call only: the next one
// clears it on entry, whereas a spent conflict or propagation budget stays
// latched until ExtendBudget.
//
// scoped selects one of two call disciplines:
//   - resumable (false; SolveContext with no frame open): the Luby
//     schedule is indexed by the cumulative restart count, so a solve
//     resumed via ExtendBudget continues it instead of rewinding, and the
//     trail is left as it stands on entry and after a result;
//   - scoped (true; SolveUnderAssumptions, and SolveContext with frames
//     open): the call backtracks to level zero on entry and exit, and the
//     Luby schedule starts over at every call.
func (s *Solver) solve(ctx context.Context, prefix []lit, scoped bool) (Status, []cnf.Lit) {
	s.ctx = ctx
	defer func() { s.ctx = nil }()
	if errors.Is(s.budget, ErrDeadline) || errors.Is(s.budget, ErrCanceled) {
		s.budget = nil
	}
	if s.opts.Tracer != nil {
		now := time.Now()
		s.traceStart, s.winStart = now, now
		s.winGlue = 0
		s.winConfs, s.winProps = s.stats.Conflicts, s.stats.Propagations
		s.nextWindow = s.stats.Conflicts + s.opts.TraceWindow
	}
	if !s.ok {
		return Unsat, nil
	}
	lubyStart := int64(0)
	if scoped {
		s.cancelUntil(0)
		defer s.cancelUntil(0)
		lubyStart = s.stats.Restarts
	}
	if conflict := s.propagate(); conflict != crefUndef {
		s.ok = false
		return Unsat, nil
	}
	if s.budget != nil {
		return Unknown, nil
	}
	for {
		if s.opts.Import != nil {
			// Foreign clauses install at level zero only; a restart that
			// kept the prefix gives it up here, and search re-descends it.
			s.cancelUntil(0)
			if !s.importShared() {
				return Unsat, nil
			}
		}
		limit := luby(2, s.stats.Restarts-lubyStart) * s.opts.RestartBase
		st, core := s.search(prefix, limit)
		if st != Unknown || s.budget != nil {
			return st, core
		}
		s.stats.Restarts++
		if t := s.opts.Tracer; t != nil {
			t.Trace(s.traceEvent(obs.EventRestart))
		}
	}
}

// traceEvent builds an event carrying the cumulative counter snapshot that
// every non-start event shares. Only called with a tracer installed.
func (s *Solver) traceEvent(typ string) *obs.Event {
	return &obs.Event{
		Type:            typ,
		TimeNS:          time.Since(s.traceStart).Nanoseconds(),
		Conflicts:       s.stats.Conflicts,
		Decisions:       s.stats.Decisions,
		Propagations:    s.stats.Propagations,
		Restarts:        s.stats.Restarts,
		Reductions:      s.stats.Reductions,
		Learned:         s.stats.Learned,
		Deleted:         s.stats.Deleted,
		LiveLearned:     len(s.learned),
		ArenaWords:      len(s.arena),
		GCCompactions:   s.stats.GCCompactions,
		GCLitsReclaimed: s.stats.GCLitsReclaimed,
		GCBytesMoved:    s.stats.GCBytesMoved,
	}
}

// traceWindow closes the current conflict window: emits the rollup event
// (propagation rate, mean learned glue, trail depth) and opens the next
// window. Only called with a tracer installed.
func (s *Solver) traceWindow(t obs.Tracer) {
	now := time.Now()
	confs := s.stats.Conflicts - s.winConfs
	props := s.stats.Propagations - s.winProps
	ev := s.traceEvent(obs.EventWindow)
	ev.WindowConflicts = confs
	if dt := now.Sub(s.winStart).Seconds(); dt > 0 {
		ev.PropsPerSec = float64(props) / dt
	}
	if confs > 0 {
		ev.MeanGlue = float64(s.winGlue) / float64(confs)
	}
	ev.TrailDepth = len(s.trail)
	ev.MaxTrail = s.stats.MaxTrail
	t.Trace(ev)
	s.winStart = now
	s.winGlue = 0
	s.winConfs = s.stats.Conflicts
	s.winProps = s.stats.Propagations
	s.nextWindow = s.stats.Conflicts + s.opts.TraceWindow
}

// checkStop polls the solve's context, the one asynchronous stop source,
// and returns the matching stop cause, or nil to keep searching.
func (s *Solver) checkStop() error {
	if s.ctx == nil {
		return nil
	}
	select {
	case <-s.ctx.Done():
		if errors.Is(s.ctx.Err(), context.DeadlineExceeded) {
			return ErrDeadline
		}
		return ErrCanceled
	default:
		return nil
	}
}

// search is the CDCL loop: propagate, analyze and learn on conflict,
// decide otherwise, until a result, the restart limit, or a stop. The
// prefix literals (open frames' activation literals, then the caller's
// assumptions; litUndef for a free one) are decided first, one per level,
// so decision level i <= len(prefix) belongs to prefix[i-1]. A conflict
// inside the prefix, or a prefix literal found already false, ends the
// call Unsat with the failed-assumption core. With an empty prefix, as in
// a plain solve, the prefix branches never fire.
func (s *Solver) search(prefix []lit, conflictLimit int64) (Status, []cnf.Lit) {
	conflictsHere := int64(0)
	for {
		conflict := s.propagate()
		if s.budget != nil {
			// A stride poll inside BCP raised a stop cause.
			return s.stop(s.budget)
		}
		if conflict != crefUndef {
			s.stats.Conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat, nil
			}
			if s.decisionLevel() <= len(prefix) {
				// The conflict depends only on the prefix.
				return Unsat, s.analyzeFinal(conflict, litUndef, prefix)
			}
			learnt, backLvl, glue := s.analyze(conflict)
			s.cancelUntil(backLvl)
			s.install(learnt, glue)
			s.decayVar()
			s.decayClause()
			if t := s.opts.Tracer; t != nil {
				s.winGlue += int64(glue)
				if s.stats.Conflicts >= s.nextWindow {
					s.traceWindow(t)
				}
			}
			if s.opts.MaxConflicts > 0 && s.stats.Conflicts >= s.opts.MaxConflicts {
				return s.stop(ErrConflictBudget)
			}
			if err := s.checkStop(); err != nil {
				return s.stop(err)
			}
			if s.stats.Conflicts >= s.reduceLimit {
				s.reduce()
			}
			continue
		}
		if s.opts.MaxPropagations > 0 && s.stats.Propagations >= s.opts.MaxPropagations {
			return s.stop(ErrPropagationBudget)
		}
		if conflictsHere >= conflictLimit {
			// Restart, keeping the prefix: its decisions and the
			// propagation they trigger are identical every time, so
			// cancelling to the prefix boundary instead of level zero
			// saves re-propagating it. (The test-only
			// disableAssumptionPrefixKeep restores the historical
			// cancel-to-zero so the saving stays measurable.)
			if s.opts.disableAssumptionPrefixKeep {
				s.cancelUntil(0)
			} else {
				s.cancelUntil(len(prefix))
			}
			return Unknown, nil
		}
		if lvl := s.decisionLevel(); lvl < len(prefix) {
			a := prefix[lvl]
			switch {
			case a == litUndef || s.value(a) == lTrue:
				// Already satisfied (or a free variable): open an empty
				// level so level indexing stays aligned with the prefix.
				s.trailLim = append(s.trailLim, len(s.trail))
			case s.value(a) == lFalse:
				// Falsified at the root or by earlier prefix literals.
				return Unsat, s.analyzeFinal(crefUndef, a, prefix)
			default:
				s.stats.Decisions++
				s.trailLim = append(s.trailLim, len(s.trail))
				s.enqueue(a, crefUndef)
			}
			continue
		}
		v := s.pickBranchVar()
		if v < 0 {
			s.extractModel()
			return Sat, nil
		}
		s.stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(mkLit(v, !s.phase[v]), crefUndef)
	}
}

// stop latches a stop cause and backtracks to level zero, so a resumed
// solve starts from the root.
func (s *Solver) stop(cause error) (Status, []cnf.Lit) {
	s.budget = cause
	s.cancelUntil(0)
	return Unknown, nil
}

// pickBranchVar pops the highest-activity unassigned variable, or -1 when
// all variables are assigned.
func (s *Solver) pickBranchVar() int {
	for !s.heap.empty() {
		v := s.heap.pop()
		if s.vals[mkLit(v, false)] == lUndef {
			return v
		}
	}
	return -1
}

// install copies a learned clause into the arena, attaches it, enqueues its
// asserting literal, and updates statistics. learnt[0] is the asserting
// literal; the slice is a reusable scratch buffer, so the copy into the
// arena is what keeps the clause alive.
func (s *Solver) install(learnt []lit, glue int) {
	s.stats.Learned++
	if s.opts.Proof != nil {
		s.opts.Proof.AddClause(toCNFSlice(learnt))
	}
	if s.opts.Export != nil {
		s.exportLearnt(learnt, glue)
	}
	switch len(learnt) {
	case 1:
		s.stats.UnitsLearned++
		s.enqueue(learnt[0], crefUndef)
		return
	case 2:
		s.stats.BinariesLearned++
	}
	c := s.allocClause(learnt, true, glue, s.clsInc)
	s.learned = append(s.learned, c)
	s.attach(c)
	s.enqueue(learnt[0], c)
}

// extractModel snapshots the current full assignment as a cnf.Assignment
// over the user-visible variables. Activation variables introduced by Push
// are internal bookkeeping and never appear in the model.
func (s *Solver) extractModel() {
	if s.i2u == nil {
		s.model = cnf.NewAssignment(s.numVars)
		for v := 0; v < s.numVars; v++ {
			s.model[v+1] = s.vals[mkLit(v, false)] == lTrue
		}
		return
	}
	s.model = cnf.NewAssignment(s.uvars)
	for iv, u := range s.i2u {
		if u >= 0 {
			s.model[u+1] = s.vals[mkLit(iv, false)] == lTrue
		}
	}
}

// BudgetExhausted reports whether the last Solve returned Unknown because a
// resource budget expired, and which one.
func (s *Solver) BudgetExhausted() error { return s.budget }

// luby computes the Luby restart sequence value luby(y, i) following the
// standard recursive characterization.
func luby(y float64, x int64) int64 {
	var size, seq int64 = 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x = x % size
	}
	return int64(math.Pow(y, float64(seq)))
}
