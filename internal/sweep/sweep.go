// Package sweep is the parallel execution substrate of the experiment
// harness: a bounded worker pool that shards an indexed cell matrix across
// goroutines. Each worker takes the next cell index from one shared
// counter and writes that cell's result and error into the cell's own
// slots, so aggregate output is a pure function of the input order —
// byte-identical regardless of worker count or completion order.
//
// Guarantees:
//
//   - Determinism: Map returns results and errors indexed by cell; each
//     slot is written once, by the worker that ran that cell, so
//     completion order never leaks.
//   - Isolation: a panicking cell is contained to its own error slot.
//   - Deadlines: each cell runs under its own context, derived from the
//     parent with Options.CellTimeout when set.
//   - Drain: once the parent context ends, no new cell starts; every cell
//     not yet taken fails with the context error, and Map returns only
//     after every in-flight cell has finished — no goroutine leaks.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"neuroselect/internal/obs"
)

// Options configures one Map run.
type Options struct {
	// Workers bounds the pool (<=0 → runtime.NumCPU(); capped at the cell
	// count).
	Workers int
	// CellTimeout, when positive, gives each cell its own deadline via a
	// derived context.
	CellTimeout time.Duration
	// Registry, when non-nil, receives the sweep's telemetry: the gauges
	// neuroselect_sweep_{cells,workers,queue_depth,started,finished,
	// failed,busy_seconds,wall_seconds}, reset at the start of each Map,
	// plus the per-cell latency histogram neuroselect_sweep_cell_seconds
	// and the cell counters neuroselect_sweep_cells_total{status},
	// accumulated across runs. Nil means no instrumentation, which keeps
	// a nested Map (the deterministic portfolio's rounds) off the
	// enclosing sweep's gauges.
	Registry *obs.Registry
}

// Map runs fn for cells 0..n-1 across a bounded worker pool and returns the
// per-cell results and errors in index order. A cell that panics fails with
// a contained error; cells not yet taken when the parent context ends fail
// with the context error. Map returns only after every worker has drained.
func Map[T any](ctx context.Context, opts Options, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, []error) {
	out := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return out, errs
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	var tel *telemetry
	if opts.Registry != nil {
		tel = startTelemetry(opts.Registry, workers, n)
	}

	// Workers take cell indices in order from one counter. Every index is
	// taken by exactly one worker, which alone writes out[i] and errs[i];
	// wg.Wait orders those writes before the return.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				tel.pulled()
				cellStart := time.Now()
				out[i], errs[i] = runCell(ctx, opts.CellTimeout, i, fn)
				tel.done(time.Since(cellStart), errs[i])
			}
		}()
	}
	wg.Wait()
	tel.finish()
	return out, errs
}

// telemetry is one Map run's instruments on Options.Registry. Its methods
// are no-ops on a nil receiver, so an uninstrumented Map skips them all.
type telemetry struct {
	start                                 time.Time
	queueDepth, started, finished, failed *obs.Gauge
	busy, wall                            *obs.Gauge
	cellSeconds                           *obs.Histogram
	cellsOK, cellsErr                     *obs.Counter
}

// startTelemetry resolves the sweep instruments on r and resets the
// per-run gauges for cells cells across workers workers.
func startTelemetry(r *obs.Registry, workers, cells int) *telemetry {
	g := func(name, help string) *obs.Gauge { return r.Gauge(name, help, nil) }
	cellsTotal := func(status string) *obs.Counter {
		return r.Counter("neuroselect_sweep_cells_total", "Sweep cells completed, by outcome.",
			obs.Labels{"status": status})
	}
	t := &telemetry{
		start:      time.Now(),
		queueDepth: g("neuroselect_sweep_queue_depth", "Cells not yet pulled by any worker."),
		started:    g("neuroselect_sweep_started", "Cells pulled off the queue."),
		finished:   g("neuroselect_sweep_finished", "Cells finished without error."),
		failed:     g("neuroselect_sweep_failed", "Cells that returned an error."),
		busy:       g("neuroselect_sweep_busy_seconds", "Summed per-worker cell execution time."),
		wall:       g("neuroselect_sweep_wall_seconds", "Wall time of the last completed sweep."),
		cellSeconds: r.Histogram("neuroselect_sweep_cell_seconds",
			"Latency of one sweep cell (one solve of one instance under one policy).", nil, nil),
		cellsOK:  cellsTotal("ok"),
		cellsErr: cellsTotal("error"),
	}
	g("neuroselect_sweep_cells", "Cells in the current/last sweep.").Set(float64(cells))
	g("neuroselect_sweep_workers", "Worker goroutines of the current/last sweep.").Set(float64(workers))
	t.queueDepth.Set(float64(cells))
	for _, z := range []*obs.Gauge{t.started, t.finished, t.failed, t.busy, t.wall} {
		z.Set(0)
	}
	return t
}

// pulled records a worker dequeuing a cell.
func (t *telemetry) pulled() {
	if t == nil {
		return
	}
	t.queueDepth.Add(-1)
	t.started.Add(1)
}

// done records one finished cell.
func (t *telemetry) done(elapsed time.Duration, err error) {
	if t == nil {
		return
	}
	t.busy.Add(elapsed.Seconds())
	t.cellSeconds.Observe(elapsed.Seconds())
	if err != nil {
		t.failed.Add(1)
		t.cellsErr.Inc()
	} else {
		t.finished.Add(1)
		t.cellsOK.Inc()
	}
}

// finish records the run's wall time.
func (t *telemetry) finish() {
	if t != nil {
		t.wall.Set(time.Since(t.start).Seconds())
	}
}

// runCell executes one cell under its own context with panic containment.
func runCell[T any](ctx context.Context, timeout time.Duration, i int, fn func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: cell %d panicked: %v", i, r)
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return fn(ctx, i)
}

// FirstError returns the lowest-index non-nil error, so error propagation
// is as deterministic as the results themselves.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
