package experiments

import (
	"context"
	"time"

	"neuroselect/internal/sweep"
)

// sweepCells shards n cells of the named experiment across the runner's
// worker pool (see internal/sweep for the engine's guarantees; its live
// telemetry lands on Runner.Obs) and logs a one-line summary. Results and
// errors come back in cell order, so aggregation downstream is independent
// of scheduling.
func sweepCells[T any](r *Runner, name string, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, []error) {
	start := time.Now()
	out, errs := sweep.Map(r.baseContext(), sweep.Options{
		Workers:     r.Workers,
		CellTimeout: r.CellTimeout,
		Registry:    r.Obs,
	}, n, fn)
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	r.logf("sweep %s: cells=%d finished=%d failed=%d wall=%v",
		name, n, n-failed, failed, time.Since(start).Round(time.Millisecond))
	return out, errs
}

// firstNonNil returns the first non-nil error of its arguments.
func firstNonNil(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cellDuration converts a measured cell duration for reporting: wall-clock
// normally, or a propagation-derived pseudo-duration (1 propagation ≡ 1µs)
// in Deterministic mode, so that timing columns are a pure function of the
// deterministic solver measure.
func (r *Runner) cellDuration(wall time.Duration, propagations int64) time.Duration {
	if r.Deterministic {
		return time.Duration(propagations) * time.Microsecond
	}
	return wall
}
