// Data-race test (package obs_test so it can import sweep, which itself
// imports obs): Prometheus and JSON scrapes must be safe while a sweep
// hammers the registry — sweep gauges moving per cell and resetting at the
// start of each run, new labeled series registering mid-scrape. Run with
// -race; see scripts/check.sh.
package obs_test

import (
	"context"
	"io"
	"strconv"
	"sync"
	"testing"
	"time"

	"neuroselect/internal/obs"
	"neuroselect/internal/sweep"
)

func TestScrapeDuringSweep(t *testing.T) {
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg, time.Now())

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				if err := reg.WriteJSON(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Several sweep runs so gauge resets race with live scrapes; each cell also
	// registers a labeled series, racing family creation against exposition.
	opts := sweep.Options{Workers: 4, Registry: reg}
	for run := 0; run < 4; run++ {
		_, errs := sweep.Map(context.Background(), opts, 64, func(ctx context.Context, i int) (int, error) {
			reg.Counter("race_cells_total", "Cells by shard.",
				obs.Labels{"shard": strconv.Itoa(i % 7)}).Inc()
			reg.Gauge("race_last_cell", "Last cell index.", nil).Set(float64(i))
			return i, nil
		})
		if err := sweep.FirstError(errs); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	scrapers.Wait()

	if got := reg.Counter("race_cells_total", "", obs.Labels{"shard": "0"}).Value(); got == 0 {
		t.Error("labeled counter never incremented")
	}
	snap := reg.Snapshot()
	var cells int64
	for _, c := range snap.Counters {
		if c.Name == "race_cells_total" {
			cells += c.Value
		}
	}
	if want := int64(4 * 64); cells != want {
		t.Errorf("race_cells_total sums to %d, want %d", cells, want)
	}
	if got := reg.Gauge("neuroselect_sweep_started", "", nil).Value(); got != 64 {
		t.Errorf("neuroselect_sweep_started = %v after final sweep, want 64", got)
	}
}
