package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neuroselect/internal/obs"
)

// checkGoroutines fails the test if the goroutine count has not returned to
// its pre-run baseline, allowing a grace period for worker teardown.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

func TestMapOrderIndependence(t *testing.T) {
	const n = 64
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 4, runtime.NumCPU(), n + 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			out, errs := Map(context.Background(), Options{Workers: workers}, n,
				func(ctx context.Context, i int) (int, error) {
					// Reverse-biased sleep so completion order differs from
					// dispatch order.
					time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
					return i * i, nil
				})
			for i := range out {
				if errs[i] != nil {
					t.Fatalf("cell %d: unexpected error %v", i, errs[i])
				}
				if out[i] != want[i] {
					t.Fatalf("cell %d: got %d, want %d", i, out[i], want[i])
				}
			}
		})
	}
}

func TestMapPanicIsolation(t *testing.T) {
	out, errs := Map(context.Background(), Options{Workers: 4}, 10,
		func(ctx context.Context, i int) (string, error) {
			if i == 3 {
				panic("boom")
			}
			return fmt.Sprintf("ok-%d", i), nil
		})
	for i := range out {
		if i == 3 {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), "cell 3 panicked: boom") {
				t.Fatalf("cell 3: want contained panic error, got %v", errs[3])
			}
			continue
		}
		if errs[i] != nil {
			t.Fatalf("cell %d: unexpected error %v", i, errs[i])
		}
		if want := fmt.Sprintf("ok-%d", i); out[i] != want {
			t.Fatalf("cell %d: got %q, want %q", i, out[i], want)
		}
	}
}

func TestMapCancellationDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	const n = 32
	var started atomic.Int64
	release := make(chan struct{})
	go func() {
		// Cancel once a few cells are in flight; release them afterwards.
		for started.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		close(release)
	}()
	out, errs := Map(ctx, Options{Workers: 2}, n,
		func(ctx context.Context, i int) (int, error) {
			started.Add(1)
			<-release
			return i, nil
		})
	if len(out) != n || len(errs) != n {
		t.Fatalf("want %d results, got %d/%d", n, len(out), len(errs))
	}
	var canceled, completed int
	for i := range errs {
		switch {
		case errs[i] == nil:
			completed++
			if out[i] != i {
				t.Fatalf("cell %d: got %d", i, out[i])
			}
		case errors.Is(errs[i], context.Canceled):
			canceled++
		default:
			t.Fatalf("cell %d: unexpected error %v", i, errs[i])
		}
	}
	if canceled == 0 {
		t.Fatal("expected some cells marked canceled")
	}
	if completed == 0 {
		t.Fatal("expected the in-flight cells to complete")
	}
	checkGoroutines(t, before)
}

func TestMapCellTimeout(t *testing.T) {
	out, errs := Map(context.Background(), Options{Workers: 2, CellTimeout: 20 * time.Millisecond}, 4,
		func(ctx context.Context, i int) (int, error) {
			if i == 1 {
				<-ctx.Done() // a well-behaved cell observes its deadline
				return 0, ctx.Err()
			}
			return i, nil
		})
	if !errors.Is(errs[1], context.DeadlineExceeded) {
		t.Fatalf("cell 1: want deadline exceeded, got %v", errs[1])
	}
	for _, i := range []int{0, 2, 3} {
		if errs[i] != nil || out[i] != i {
			t.Fatalf("cell %d: got (%d, %v)", i, out[i], errs[i])
		}
	}
}

func TestMapCounters(t *testing.T) {
	reg := obs.NewRegistry()
	gauge := func(name string) float64 { return reg.Gauge("neuroselect_sweep_"+name, "", nil).Value() }
	cells := func(status string) int64 {
		return reg.Counter("neuroselect_sweep_cells_total", "", obs.Labels{"status": status}).Value()
	}
	const n = 20
	_, errs := Map(context.Background(), Options{Workers: 3, Registry: reg}, n,
		func(ctx context.Context, i int) (int, error) {
			if i%5 == 0 {
				return 0, errors.New("injected")
			}
			return i, nil
		})
	wantFailed := 0.0
	for i := range errs {
		if errs[i] != nil {
			wantFailed++
		}
	}
	for name, want := range map[string]float64{
		"workers": 3, "cells": n, "started": n, "queue_depth": 0,
		"failed": wantFailed, "finished": n - wantFailed,
	} {
		if got := gauge(name); got != want {
			t.Errorf("neuroselect_sweep_%s = %v, want %v", name, got, want)
		}
	}
	if gauge("wall_seconds") <= 0 {
		t.Error("wall time not recorded")
	}
	if got := cells("error"); got != int64(wantFailed) {
		t.Errorf("cells_total{error} = %d, want %v", got, wantFailed)
	}
	if got := cells("ok"); got != n-int64(wantFailed) {
		t.Errorf("cells_total{ok} = %d, want %v", got, n-wantFailed)
	}

	// The next run resets the gauges; the counters keep accumulating.
	Map(context.Background(), Options{Workers: 1, Registry: reg}, 2,
		func(ctx context.Context, i int) (int, error) { return i, nil })
	if gauge("workers") != 1 || gauge("started") != 2 || gauge("failed") != 0 {
		t.Errorf("gauges not reset: workers=%v started=%v failed=%v",
			gauge("workers"), gauge("started"), gauge("failed"))
	}
	if got := cells("ok"); got != n-int64(wantFailed)+2 {
		t.Errorf("cells_total{ok} = %d after second run, want %v", got, n-wantFailed+2)
	}
}

func TestMapZeroCells(t *testing.T) {
	out, errs := Map(context.Background(), Options{}, 0,
		func(ctx context.Context, i int) (int, error) { return i, nil })
	if len(out) != 0 || len(errs) != 0 {
		t.Fatalf("want empty results, got %d/%d", len(out), len(errs))
	}
}

func TestFirstError(t *testing.T) {
	e2, e4 := errors.New("two"), errors.New("four")
	if got := FirstError([]error{nil, nil, e2, nil, e4}); got != e2 {
		t.Fatalf("FirstError = %v, want %v", got, e2)
	}
	if got := FirstError([]error{nil, nil}); got != nil {
		t.Fatalf("FirstError = %v, want nil", got)
	}
}
