// Package faultpoint provides named, deterministic fault-injection sites
// for exercising the solve stack's failure-containment paths in tests.
//
// A site is a stable string name compiled into production code at the spot
// where a fault could plausibly originate (a parse, a model inference, a
// reduce step, a race worker). In production every site is unarmed and a
// hit costs a single atomic load. Tests arm a site with a Fault — an error
// to return, a value to panic with, or a delay to sleep — optionally
// skipping the first Skip hits and firing at most Times times, which makes
// the injected failure deterministic with respect to the hit sequence.
//
// The registry is global because the sites are compiled into packages that
// must not depend on test plumbing. Every exported function — Arm, Disarm,
// Reset, Active, Hits, Fired, and Hit — is safe for concurrent use, and the
// package is race-detector clean: tests may arm or disarm a site while
// server goroutines are hitting it. An Arm or Disarm is linearizable with
// respect to concurrent Hits: each Hit observes either the entire old fault
// (with its hit counters) or the entire new one, never a mix, and the
// Skip/Times window of one armed fault is counted under a single lock so
// the firing sequence is deterministic in the number of hits even when the
// hits come from many goroutines. Tests should still register
// t.Cleanup(faultpoint.Reset) so a failing test cannot leak armed sites
// into the next one.
package faultpoint

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one fault-injection location in the solve stack.
type Site string

// The compiled-in sites. The constant value is the stable name; the
// constant identifier documents the owning package.
const (
	// DimacsParse fires at the top of cnf.Parse, which every DIMACS
	// ingest reaches (cnf.ParseDIMACS reads its input, then calls it).
	DimacsParse Site = "cnf.dimacs.parse"
	// ModelInference fires inside portfolio.Selector.Choose, immediately
	// before the model call.
	ModelInference Site = "portfolio.model.inference"
	// SolverReduce fires at the top of the solver's reduce step. Injected
	// errors are escalated to panics (a failing reduction is an internal
	// invariant violation) and contained by solver.SolveContext.
	SolverReduce Site = "solver.reduce"
	// SolverPropagate fires at every context poll inside BCP (once per
	// 2048 propagations, the solver's constant stride). A Delay fault
	// simulates a slow propagation chain for deadline tests.
	SolverPropagate Site = "solver.propagate"
	// PortfolioWorker fires at the start of each parallel-portfolio worker
	// (free-running mode: once per worker goroutine; deterministic mode:
	// once per live worker per exchange round). An injected error or panic
	// fails that worker; the portfolio continues on the survivors.
	PortfolioWorker Site = "portfolio.parallel.worker"
	// PortfolioExport fires in the clause-exchange export hook, once per
	// learned clause offered for sharing. An injected error drops the
	// clause (degraded exchange); a panic kills the exporting worker and
	// is contained by the portfolio.
	PortfolioExport Site = "portfolio.exchange.export"
	// PortfolioImport fires in the clause-exchange import drain, once per
	// batch. An injected error drops the pending batch (degraded
	// exchange); a panic kills the importing worker and is contained by
	// the portfolio.
	PortfolioImport Site = "portfolio.exchange.import"
	// ExperimentInstance fires once per test instance in the experiments
	// runner's solving loops.
	ExperimentInstance Site = "experiments.instance"

	// The server sites below are threaded through internal/server and
	// drive its chaos harness (internal/server's chaos tests arm random,
	// seed-deterministic subsets of them).

	// ServerJournalAppend fires before every job-journal append; an
	// injected error degrades journaling (the record is dropped) without
	// failing the request.
	ServerJournalAppend Site = "server.journal.append"
	// ServerJournalReplay fires once per journal record during startup
	// replay; an injected error skips that record.
	ServerJournalReplay Site = "server.journal.replay"
	// ServerCacheGet fires before every result-cache lookup; an injected
	// error is treated as a miss.
	ServerCacheGet Site = "server.cache.get"
	// ServerCachePut fires before every result-cache fill; an injected
	// error skips the fill.
	ServerCachePut Site = "server.cache.put"
	// ServerEnqueue fires inside the admission path; an injected error
	// sheds the request as if the queue were full.
	ServerEnqueue Site = "server.enqueue"
	// ServerWorkerSolve fires in the worker immediately before the solve;
	// an injected error or panic fails that job with a 500.
	ServerWorkerSolve Site = "server.worker.solve"
	// ServerDrain fires at the start of graceful drain; a Delay fault
	// simulates a slow drain (errors are ignored — drain must proceed).
	ServerDrain Site = "server.drain"
)

// Fault describes what an armed site does when hit. Delay applies first,
// then PanicValue, then Err; a zero Fault is a pure counting probe.
type Fault struct {
	// Err is returned (wrapped with the site name) from Hit.
	Err error
	// PanicValue, when non-nil, makes Hit panic.
	PanicValue any
	// Delay makes Hit sleep before returning or panicking.
	Delay time.Duration
	// Skip passes the first Skip hits through unharmed.
	Skip int
	// Times bounds how often the fault fires (0 = every eligible hit).
	Times int
}

type armedFault struct {
	fault Fault
	hits  int
	fired int
}

var (
	armedCount atomic.Int32
	mu         sync.Mutex
	sites      = map[Site]*armedFault{}
)

// Arm installs a fault at the site, replacing any previous one and
// resetting its hit counters.
func Arm(site Site, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[site]; !ok {
		armedCount.Add(1)
	}
	sites[site] = &armedFault{fault: f}
}

// Disarm removes the fault at the site, if any.
func Disarm(site Site) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[site]; ok {
		delete(sites, site)
		armedCount.Add(-1)
	}
}

// Reset disarms every site. Tests should register it with t.Cleanup.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for s := range sites {
		delete(sites, s)
	}
	armedCount.Store(0)
}

// Active reports whether any site is armed; it is a single atomic load and
// is the fast path Hit takes in production.
func Active() bool { return armedCount.Load() > 0 }

// Hits returns how many times the site has been hit since it was armed
// (0 when unarmed).
func Hits(site Site) int {
	mu.Lock()
	defer mu.Unlock()
	if af, ok := sites[site]; ok {
		return af.hits
	}
	return 0
}

// Fired returns how many times the site's fault actually fired (0 when
// unarmed; hits swallowed by Skip/Times do not count).
func Fired(site Site) int {
	mu.Lock()
	defer mu.Unlock()
	if af, ok := sites[site]; ok {
		return af.fired
	}
	return 0
}

// Hit is called by production code at the site. When the site is unarmed
// it returns nil after one atomic load. When armed it counts the hit and,
// if the Skip/Times window admits it, sleeps Delay, panics with
// PanicValue, or returns Err wrapped with the site name, in that order.
func Hit(site Site) error {
	if armedCount.Load() == 0 {
		return nil
	}
	mu.Lock()
	af, ok := sites[site]
	if !ok {
		mu.Unlock()
		return nil
	}
	af.hits++
	if af.hits <= af.fault.Skip || (af.fault.Times > 0 && af.fired >= af.fault.Times) {
		mu.Unlock()
		return nil
	}
	af.fired++
	f := af.fault
	mu.Unlock()

	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.PanicValue != nil {
		panic(fmt.Sprintf("faultpoint %s: %v", site, f.PanicValue))
	}
	if f.Err != nil {
		return fmt.Errorf("faultpoint %s: %w", site, f.Err)
	}
	return nil
}
