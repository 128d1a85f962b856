package portfolio

// N-worker shared-clause portfolio.
//
// The portfolio runs diversified solver configurations over the same
// formula — alternating deletion policies, rotated restart schedules,
// flipped initial phases, and per-worker activity seeds — and lets them
// exchange learned clauses through glue/size-filtered bounded queues.
// Import is a cheap bulk copy into the receiving solver's arena at restart
// boundaries (solver.Options.Import), when the trail is at level zero.
//
// Two execution modes share the configuration machinery:
//
//   - Free-running (Config.Deterministic = false): one goroutine per
//     worker, non-blocking channel queues, first decisive finisher
//     interrupts the rest. Maximum throughput; answers, stats, and shared
//     sets depend on scheduling.
//
//   - Deterministic (Config.Deterministic = true): a FIXED ensemble of
//     virtual workers advances in lockstep rounds of barrierProps
//     propagations (pseudo-time, as in internal/sweep), with an all-to-all
//     exchange merged in (worker, sequence) order at each barrier. The
//     winner is the lowest-indexed worker decided in the earliest round.
//     Config.Workers only sets the OS parallelism executing the rounds, so
//     answers, stats, and shared-clause sets are byte-identical for any
//     worker count — the property the determinism golden tests pin.
//
// Blast radius of a failing worker: a panic anywhere in a worker's search
// — including the exchange hooks — is contained to that worker (recover in
// free-running mode, sweep's cell containment in deterministic mode); the
// portfolio carries on with the survivors and only errors when every
// worker has failed. Export and import never block: full queues drop
// (counted in ExchangeStats.Dropped), and a wedged worker can therefore
// stall only itself.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/dataset"
	"neuroselect/internal/deletion"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/obs"
	"neuroselect/internal/solver"
	"neuroselect/internal/sweep"
)

// Portfolio defaults. CLI flags and server knobs expose Workers and
// Deterministic; the rest are tuning constants chosen for the laptop-scale
// instances of this reproduction.
const (
	// DefaultEnsemble is the deterministic mode's fixed virtual-worker
	// count: large enough to cover both deletion policies under two
	// restart schedules, small enough that a single-CPU run stays cheap.
	DefaultEnsemble = 4
	// barrierProps is the deterministic exchange-round length in
	// propagations (pseudo-time: 1 propagation ≡ 1µs, as in the
	// experiment harness).
	barrierProps = 20000
	// glueLimit and sizeLimit gate the export filter: binaries always
	// travel; longer clauses need glue ≤ glueLimit and size ≤ sizeLimit
	// ("Rethinking Clause Management": share the few clauses likely to be
	// useful elsewhere, not the database).
	glueLimit = 4
	sizeLimit = 12
	// DefaultQueueCap bounds each worker's export queue; overflow drops.
	DefaultQueueCap = 4096
)

// Config configures an N-worker portfolio solve. The zero value solves
// with NumCPU free-running workers and exchange enabled.
type Config struct {
	// Workers: free-running mode races this many diversified solvers
	// (<= 0 → runtime.NumCPU()). Deterministic mode runs the fixed
	// Ensemble and uses Workers only as OS parallelism, so it cannot
	// influence the output.
	Workers int
	// MaxConflicts bounds each worker's search (0 = unlimited).
	MaxConflicts int64
	// Deterministic switches to lockstep exchange rounds with pseudo-time
	// barriers; see the package comment.
	Deterministic bool
	// Ensemble is the deterministic mode's virtual-worker count
	// (<= 0 → DefaultEnsemble). Ignored in free-running mode.
	Ensemble int
	// QueueCap bounds each worker's export queue (<= 0 →
	// DefaultQueueCap).
	QueueCap int
	// NoExchange disables clause sharing: workers race independently.
	// The two-policy race uses this to preserve virtual-best semantics.
	NoExchange bool
	// NoDiversify keeps every worker on the experiment-standard options
	// (policies still alternate). Used by the two-policy race.
	NoDiversify bool
	// Auto, when non-nil, is worker 0's deletion policy: a model choice
	// deferred to that worker's first reduction, built by Selector.Defer
	// for this one solve (the remaining workers stay pinned). The caller
	// picks its choose function, so a server can put the model call behind
	// its own breaker. Inference is a pure function of the model and
	// formula, so deterministic mode stays deterministic.
	Auto *Deferred
	// Obs, when non-nil, receives per-worker exchange counters
	// (neuroselect_portfolio_exchange_clauses_total{worker,event}) and the
	// round counter neuroselect_portfolio_rounds_total.
	Obs *obs.Registry
	// Tracer, when non-nil, receives EventExchange events: per worker per
	// round in deterministic mode (emitted by the coordinator, in worker
	// order), per worker at drain in free-running mode. Worker solvers do
	// NOT inherit this tracer — interleaving per-solver events from
	// concurrent searches would be scheduling-dependent.
	Tracer obs.Tracer
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Ensemble <= 0 {
		c.Ensemble = DefaultEnsemble
	}
	if c.QueueCap <= 0 {
		c.QueueCap = DefaultQueueCap
	}
}

// ExchangeStats is one worker's clause-exchange ledger. Exported counts
// clauses that passed the filter and entered the exchange; Filtered counts
// clauses the glue/size filter rejected; Dropped counts per-receiver
// copies lost to a full queue (free-running) or exports beyond the queue
// cap (deterministic); Imported counts clauses received from peers (the
// installed subset is the worker's Stats.Imported). Hash is an FNV-1a
// digest of the exported clause stream — the cheap fingerprint the
// determinism tests compare across worker counts.
type ExchangeStats struct {
	Worker   int    `json:"worker"`
	Config   string `json:"config"`
	Exported int64  `json:"exported"`
	Imported int64  `json:"imported"`
	Filtered int64  `json:"filtered"`
	Dropped  int64  `json:"dropped"`
	Hash     uint64 `json:"hash"`
}

// ParallelReport is the outcome of a portfolio solve.
type ParallelReport struct {
	// Result is the winning worker's solve result (model verified for
	// SAT). When no worker decided, it carries the lowest-indexed
	// survivor's stats and stop cause.
	Result solver.Result
	// Winner names the winning worker's configuration ("" when undecided).
	Winner string
	// WinnerIndex is the winning worker's index (-1 when undecided).
	WinnerIndex int
	// Workers is the number of solver configurations raced.
	Workers int
	// Rounds is the number of exchange rounds executed (deterministic
	// mode; 0 in free-running mode).
	Rounds int
	// Deterministic records which mode produced this report.
	Deterministic bool
	// WallTime is the solve's wall-clock duration. In deterministic mode
	// prefer PseudoTime for anything that must reproduce.
	WallTime time.Duration
	// PseudoTime is the deterministic measure of the winner's search:
	// its propagation count at 1 propagation ≡ 1µs.
	PseudoTime time.Duration
	// PropFreqHash is the FNV-1a hash of the winning worker's cumulative
	// propagation-frequency vector (0 when undecided).
	PropFreqHash uint64
	// Exchange holds per-worker exchange ledgers, indexed by worker.
	Exchange []ExchangeStats
	// Failures lists workers whose solve failed (panicked or errored).
	Failures []string
}

// SolveParallel runs an N-worker shared-clause portfolio solve.
func SolveParallel(f *cnf.Formula, cfg Config) (ParallelReport, error) {
	return SolveParallelContext(context.Background(), f, cfg)
}

// SolveParallelContext is SolveParallel under a context: cancellation
// stops every worker within a bounded number of propagations and the
// report carries ErrCanceled. The call never leaks goroutines — it
// returns only after every worker has delivered its outcome.
func SolveParallelContext(ctx context.Context, f *cnf.Formula, cfg Config) (ParallelReport, error) {
	cfg.fillDefaults()
	if cfg.Deterministic {
		return solveLockstep(ctx, f, cfg)
	}
	return solveFree(ctx, f, cfg)
}

// workerConfig is one diversified solver configuration. A worker under a
// Deferred choice is named "auto" in place of its policy until settle
// completes the name.
type workerConfig struct {
	name string
	opts solver.Options
}

// settle completes a deferred worker's name with its settled choice: the
// pick, or "default" when its search never needed one. Call it only once
// the worker has stopped.
func (w *workerConfig) settle() {
	if d, ok := w.opts.Policy.(*Deferred); ok {
		w.name = strings.Replace(w.name, "auto", d.Result().Policy.Name(), 1)
	}
}

// makeConfigs builds the ensemble: policies alternate default/frequency
// (worker 0 under cfg.Auto when it is set), restart bases rotate
// through {128, 64, 256, 512}, initial phases flip every second pair, and
// workers past 0 get distinct activity seeds. NoDiversify keeps everyone
// on the experiment-standard options so only the policy differs.
func makeConfigs(cfg *Config, n int) []workerConfig {
	restartBases := []int64{128, 64, 256, 512}
	out := make([]workerConfig, n)
	for i := range out {
		var pol deletion.Policy
		if i%2 == 0 {
			pol = deletion.DefaultPolicy{}
		} else {
			pol = deletion.FrequencyPolicy{}
		}
		if i == 0 && cfg.Auto != nil {
			pol = cfg.Auto
		}
		o := dataset.SolveOptions(pol, cfg.MaxConflicts)
		name := fmt.Sprintf("w%d:%s", i, pol.Name())
		if !cfg.NoDiversify {
			o.RestartBase = restartBases[i%len(restartBases)]
			o.InitialPhase = (i/2)%2 == 1
			if i > 0 {
				o.ActivitySeed = 0x9E3779B97F4A7C15 * uint64(i)
			}
			name = fmt.Sprintf("%s:r%d", name, o.RestartBase)
		}
		out[i] = workerConfig{name: name, opts: o}
	}
	return out
}

// FNV-1a parameters for the exchange and propagation-frequency digests.
const (
	fnvOffset uint64 = 1469598103934665603
	fnvPrime  uint64 = 1099511628211
)

// fnvMix folds one 64-bit word into an FNV-1a hash, byte by byte.
func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h ^= (x >> i) & 0xff
		h *= fnvPrime
	}
	return h
}

// PropFreqHash digests a propagation-frequency vector (as returned by
// solver.PropagationFrequencies) with FNV-1a. Two searches with the same
// hash propagated each variable identically often — the compact
// reproducibility fingerprint used by the determinism tests and satsolve's
// -stats-json output.
func PropFreqHash(freqs []uint64) uint64 {
	h := fnvOffset
	for _, v := range freqs {
		h = fnvMix(h, v)
	}
	return h
}

// shareable applies the export filter: binaries always travel, longer
// clauses must be both low-glue and short.
func shareable(lits []cnf.Lit, glue int) bool {
	if len(lits) <= 2 {
		return true
	}
	return glue <= glueLimit && len(lits) <= sizeLimit
}

// hashClause folds one exported clause into a worker's exchange digest.
func hashClause(h uint64, lits []cnf.Lit, glue int) uint64 {
	h = fnvMix(h, uint64(len(lits)))
	h = fnvMix(h, uint64(int64(glue)))
	for _, l := range lits {
		h = fnvMix(h, uint64(int64(l)))
	}
	return h
}

// publish settles every worker's name into its exchange ledger, then
// pushes the final ledgers into the registry and tracer. round is the last
// completed exchange round (0 for free-running mode). Call it only once
// every worker has stopped.
func publish(cfg *Config, round int, configs []workerConfig, states []ExchangeStats) {
	for i := range configs {
		configs[i].settle()
		states[i].Config = configs[i].name
	}
	if cfg.Obs != nil {
		for i := range states {
			w := strconv.Itoa(i)
			ev := func(event string) *obs.Counter {
				return cfg.Obs.Counter("neuroselect_portfolio_exchange_clauses_total",
					"Clauses through the portfolio exchange, by worker and event.",
					obs.Labels{"worker": w, "event": event})
			}
			ev("exported").Add(states[i].Exported)
			ev("imported").Add(states[i].Imported)
			ev("filtered").Add(states[i].Filtered)
			ev("dropped").Add(states[i].Dropped)
		}
		cfg.Obs.Counter("neuroselect_portfolio_rounds_total",
			"Completed portfolio exchange rounds.", nil).Add(int64(round))
	}
	if cfg.Tracer != nil {
		for i := range states {
			cfg.Tracer.Trace(exchangeEvent(round, &states[i]))
		}
	}
}

// exchangeEvent renders one worker's cumulative exchange ledger as a
// trace event.
func exchangeEvent(round int, st *ExchangeStats) *obs.Event {
	return &obs.Event{
		Type:     obs.EventExchange,
		Round:    round,
		Worker:   st.Worker,
		Exported: st.Exported,
		Imported: st.Imported,
		Filtered: st.Filtered,
		Dropped:  st.Dropped,
	}
}

// solveFree is the free-running mode: one goroutine per worker, buffered
// inbox channels, non-blocking export fan-out, first decisive finisher
// interrupts the rest. Race is its 2-worker, no-exchange special case.
func solveFree(ctx context.Context, f *cnf.Formula, cfg Config) (ParallelReport, error) {
	n := cfg.Workers
	configs := makeConfigs(&cfg, n)
	states := make([]ExchangeStats, n)
	for i := range states {
		states[i] = ExchangeStats{Worker: i, Config: configs[i].name, Hash: fnvOffset}
	}
	inboxes := make([]chan solver.SharedClause, n)
	for i := range inboxes {
		inboxes[i] = make(chan solver.SharedClause, cfg.QueueCap)
	}

	type outcome struct {
		idx int
		res solver.Result
		pf  uint64 // PropFreqHash of this worker's search
		err error
	}
	var stop atomic.Bool
	results := make(chan outcome, n)
	start := time.Now()
	for i := range configs {
		go func(i int) {
			o := outcome{idx: i}
			defer func() {
				if r := recover(); r != nil {
					o.err = fmt.Errorf("panic: %v", r)
				}
				results <- o
			}()
			if err := faultpoint.Hit(faultpoint.PortfolioWorker); err != nil {
				o.err = err
				return
			}
			opts := configs[i].opts
			opts.Interrupt = stop.Load
			ex := &states[i]
			if !cfg.NoExchange {
				var scratch []solver.SharedClause
				opts.Export = func(lits []cnf.Lit, glue int) {
					if err := faultpoint.Hit(faultpoint.PortfolioExport); err != nil {
						ex.Dropped++ // degraded exchange: the clause is lost, the search continues
						return
					}
					if !shareable(lits, glue) {
						ex.Filtered++
						return
					}
					ex.Exported++
					ex.Hash = hashClause(ex.Hash, lits, glue)
					cp := make([]cnf.Lit, len(lits))
					copy(cp, lits)
					sc := solver.SharedClause{Lits: cp, Glue: glue}
					for j := range inboxes {
						if j == i {
							continue
						}
						select {
						case inboxes[j] <- sc:
						default:
							ex.Dropped++ // receiver's queue full: drop, never block
						}
					}
				}
				opts.Import = func() []solver.SharedClause {
					if err := faultpoint.Hit(faultpoint.PortfolioImport); err != nil {
						return nil // degraded exchange: skip this drain
					}
					batch := scratch[:0]
					for {
						select {
						case sc := <-inboxes[i]:
							batch = append(batch, sc)
							ex.Imported++
						default:
							scratch = batch
							return batch
						}
					}
				}
			}
			// The solver is driven directly (not via solver.SolveContext)
			// so the worker can hash its propagation frequencies; the
			// deferred recover above provides the same panic containment.
			s, err := solver.New(f, opts)
			if err != nil {
				o.err = err
				return
			}
			st := s.SolveContext(ctx)
			o.res = solver.Result{Status: st, Stats: s.Stats(), Stop: s.BudgetExhausted()}
			o.pf = PropFreqHash(s.PropagationFrequencies())
			if st == solver.Sat {
				o.res.Model = s.Model()
				if !o.res.Model.Satisfies(f) {
					o.err = errors.New("model does not satisfy formula")
				}
			}
		}(i)
	}

	// Drain every worker unconditionally: the no-leak guarantee. The first
	// decisive finisher wins and interrupts the rest; an Unknown first
	// finisher is displaced by a later decisive one.
	rep := ParallelReport{Workers: n, WinnerIndex: -1, Exchange: states}
	var chosen *outcome
	var failed []error
	for range configs {
		o := <-results
		if o.err != nil {
			configs[o.idx].settle()
			name := configs[o.idx].name
			o.err = fmt.Errorf("portfolio: worker %s: %w", name, o.err)
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", name, o.err))
			failed = append(failed, o.err)
			continue
		}
		if o.res.Status != solver.Unknown && (chosen == nil || chosen.res.Status == solver.Unknown) {
			stop.Store(true)
			c := o
			chosen = &c
		} else if chosen == nil {
			c := o
			chosen = &c
		}
	}
	rep.WallTime = time.Since(start)
	publish(&cfg, 0, configs, states)
	if chosen == nil {
		return rep, fmt.Errorf("portfolio: all %d workers failed: %w", n, errors.Join(failed...))
	}
	rep.Result = chosen.res
	rep.PseudoTime = time.Duration(chosen.res.Stats.Propagations) * time.Microsecond
	if chosen.res.Status != solver.Unknown {
		rep.Winner = configs[chosen.idx].name
		rep.WinnerIndex = chosen.idx
		rep.PropFreqHash = chosen.pf
	}
	return rep, nil
}

// solveLockstep is the deterministic mode: the fixed ensemble advances in
// exchange rounds of barrierProps propagations, executed across
// Config.Workers OS threads by sweep.Map (whose index-ordered aggregation
// guarantees the round outcome is scheduling-independent). All exchange
// and winner selection happens on the coordinating goroutine between
// rounds, merged in worker order.
func solveLockstep(ctx context.Context, f *cnf.Formula, cfg Config) (ParallelReport, error) {
	n := cfg.Ensemble
	configs := makeConfigs(&cfg, n)
	states := make([]ExchangeStats, n)
	solvers := make([]*solver.Solver, n)
	status := make([]solver.Status, n)
	dead := make([]error, n) // terminal failure, worker never touched again
	outbox := make([][]solver.SharedClause, n)
	inbox := make([][]solver.SharedClause, n)

	rep := ParallelReport{Workers: n, WinnerIndex: -1, Deterministic: true, Exchange: states}
	start := time.Now()
	for i := range configs {
		i := i
		states[i] = ExchangeStats{Worker: i, Config: configs[i].name, Hash: fnvOffset}
		opts := configs[i].opts
		if !cfg.NoExchange {
			opts.Export = func(lits []cnf.Lit, glue int) {
				if err := faultpoint.Hit(faultpoint.PortfolioExport); err != nil {
					states[i].Dropped++
					return
				}
				if !shareable(lits, glue) {
					states[i].Filtered++
					return
				}
				if len(outbox[i]) >= cfg.QueueCap {
					states[i].Dropped++
					return
				}
				states[i].Exported++
				states[i].Hash = hashClause(states[i].Hash, lits, glue)
				cp := make([]cnf.Lit, len(lits))
				copy(cp, lits)
				outbox[i] = append(outbox[i], solver.SharedClause{Lits: cp, Glue: glue})
			}
			opts.Import = func() []solver.SharedClause {
				if err := faultpoint.Hit(faultpoint.PortfolioImport); err != nil {
					inbox[i] = nil // degraded exchange: the batch is lost
					return nil
				}
				batch := inbox[i]
				inbox[i] = nil
				states[i].Imported += int64(len(batch))
				return batch
			}
		}
		s, err := solver.New(f, opts)
		if err != nil {
			return rep, err
		}
		solvers[i] = s
	}

	finish := func(win int, round int) (ParallelReport, error) {
		rep.Rounds = round
		rep.WallTime = time.Since(start)
		publish(&cfg, round, configs, states)
		if win < 0 {
			// Undecided: report the lowest-indexed survivor's outcome, or
			// error when every worker is dead.
			for i := range solvers {
				if dead[i] == nil {
					s := solvers[i]
					rep.Result = solver.Result{Status: solver.Unknown, Stats: s.Stats(), Stop: s.BudgetExhausted()}
					rep.PseudoTime = time.Duration(rep.Result.Stats.Propagations) * time.Microsecond
					return rep, nil
				}
			}
			var failed []error
			for i := range dead {
				failed = append(failed, dead[i])
			}
			return rep, fmt.Errorf("portfolio: all %d workers failed: %w", n, errors.Join(failed...))
		}
		s := solvers[win]
		rep.Winner = configs[win].name
		rep.WinnerIndex = win
		rep.Result = solver.Result{Status: status[win], Stats: s.Stats(), Stop: s.BudgetExhausted()}
		rep.PseudoTime = time.Duration(rep.Result.Stats.Propagations) * time.Microsecond
		rep.PropFreqHash = PropFreqHash(s.PropagationFrequencies())
		if status[win] == solver.Sat {
			rep.Result.Model = s.Model()
			if !rep.Result.Model.Satisfies(f) {
				return rep, fmt.Errorf("portfolio: worker %s: model does not satisfy formula", configs[win].name)
			}
		}
		return rep, nil
	}

	for round := 1; ; round++ {
		barrier := int64(round) * barrierProps
		_, errs := sweep.Map(ctx, sweep.Options{Workers: cfg.Workers}, n,
			func(cellCtx context.Context, i int) (struct{}, error) {
				if dead[i] != nil || status[i] != solver.Unknown {
					return struct{}{}, nil
				}
				s := solvers[i]
				if exhausted := s.BudgetExhausted(); exhausted != nil && !isBarrierStop(exhausted) {
					return struct{}{}, nil // conflict budget spent: parked, not dead
				}
				if err := faultpoint.Hit(faultpoint.PortfolioWorker); err != nil {
					return struct{}{}, err
				}
				s.ExtendBudget(cfg.MaxConflicts, barrier)
				status[i] = s.SolveContext(cellCtx)
				return struct{}{}, nil
			})
		if err := ctx.Err(); err != nil {
			// Canceled mid-round: report the lowest-indexed survivor with
			// the cancellation cause (output is not deterministic on this
			// path — the barrier a worker reached depends on timing).
			rep.Rounds = round - 1
			rep.WallTime = time.Since(start)
			publish(&cfg, round-1, configs, states)
			stop := solver.ErrCanceled
			if errors.Is(err, context.DeadlineExceeded) {
				stop = solver.ErrDeadline
			}
			for i := range solvers {
				if dead[i] == nil {
					rep.Result = solver.Result{Status: solver.Unknown, Stats: solvers[i].Stats(), Stop: stop}
					rep.PseudoTime = time.Duration(rep.Result.Stats.Propagations) * time.Microsecond
					return rep, nil
				}
			}
			return rep, err
		}
		for i, err := range errs {
			if err != nil && dead[i] == nil {
				dead[i] = err
				configs[i].settle()
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", configs[i].name, err))
				outbox[i] = nil // a failed round's partial exports do not travel
			}
		}

		// Winner: lowest index decided in the earliest round.
		for i := range status {
			if dead[i] == nil && status[i] != solver.Unknown {
				return finish(i, round)
			}
		}

		// Liveness: a worker still makes progress if its next round can
		// move it (its stop cause is the propagation barrier, not an
		// exhausted conflict budget or a death).
		live := false
		for i := range solvers {
			if dead[i] == nil && isBarrierStop(solvers[i].BudgetExhausted()) {
				live = true
				break
			}
		}
		if !live {
			return finish(-1, round)
		}

		// All-to-all exchange, merged in (sender, sequence) order.
		if !cfg.NoExchange {
			for i := range solvers {
				if dead[i] != nil {
					continue
				}
				for j := range solvers {
					if j == i || dead[j] != nil {
						continue
					}
					inbox[i] = append(inbox[i], outbox[j]...)
				}
			}
			for j := range outbox {
				outbox[j] = nil
			}
			if cfg.Tracer != nil {
				for i := range states {
					cfg.Tracer.Trace(exchangeEvent(round, &states[i]))
				}
			}
		}
	}
}

// isBarrierStop reports whether a worker's stop cause was the round's
// propagation barrier — the only stop the next round can lift.
func isBarrierStop(stop error) bool {
	return errors.Is(stop, solver.ErrPropagationBudget)
}
