// Command experiments reproduces the paper's tables and figures.
//
// Usage:
//
//	experiments [-scale quick|default] [-only fig3|fig4|fig5|table1|table2|fig7|table3]
//	            [-seed N] [-j N] [-cell-timeout D] [-sweep-deadline D] [-deterministic]
//
// The instance×policy matrix of every experiment is sharded across -j
// workers; aggregation is deterministic, so the rendered tables and JSON
// are identical for any worker count. Ctrl-C (SIGINT/SIGTERM) cancels the
// parent context, draining all in-flight sweep workers before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"neuroselect/internal/experiments"
	"neuroselect/internal/obs"
)

func main() {
	// The run happens inside run() so the deferred profile writers and
	// closes execute on every exit path, error exits included.
	os.Exit(run())
}

func run() int {
	scaleName := flag.String("scale", "default", "experiment scale: quick or default")
	only := flag.String("only", "", "run a single experiment (fig3, fig4, fig5, table1, table2, fig7, table3, ext-policies, ext-selectors, ext-alpha, ext-scaling)")
	seed := flag.Int64("seed", 0, "override the corpus seed (0 keeps the preset)")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON document instead of text reports")
	workers := flag.Int("j", 0, "sweep worker count (0 = runtime.NumCPU())")
	cellTimeout := flag.Duration("cell-timeout", 0, "per-cell solve deadline (0 = none)")
	sweepDeadline := flag.Duration("sweep-deadline", 0, "whole-run deadline (0 = none)")
	deterministic := flag.Bool("deterministic", false, "replace wall-clock readings with propagation-derived pseudo-time so output is byte-identical across runs and worker counts")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /healthz and /debug/pprof for the sweep on this address (e.g. 127.0.0.1:9090)")
	flag.Parse()

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "default":
		scale = experiments.DefaultScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		return 2
	}
	if *seed != 0 {
		scale.Corpus.Seed = *seed
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *sweepDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *sweepDeadline)
		defer cancel()
	}

	r := experiments.NewRunner(scale)
	r.BaseContext = ctx
	r.Workers = *workers
	r.CellTimeout = *cellTimeout
	r.Deterministic = *deterministic
	if !*quiet {
		r.Log = os.Stderr
	}
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterProcessMetrics(reg, time.Now())
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: metrics listening on %s\n", srv.Addr())
		r.Obs = reg
	}
	start := time.Now()
	if *jsonOut {
		var names []string
		if *only != "" {
			names = []string{*only}
		}
		err = r.RunAllJSON(os.Stdout, names...)
	} else {
		err = r.RunAll(os.Stdout, *only)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "experiments: done in %s\n", time.Since(start).Round(time.Millisecond))
	}
	return 0
}
