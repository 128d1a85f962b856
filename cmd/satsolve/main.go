// Command satsolve is a DIMACS CNF solver with selectable clause-deletion
// policies.
//
// Usage:
//
//	satsolve [-policy default|frequency|activity|size] [-conflicts N] [-timeout D]
//	         [-stats] [-stats-json] [-metrics-addr HOST:PORT] [-trace out.jsonl] file.cnf
//
// Reads from stdin when no file is given. Exits 10 for SAT, 20 for UNSAT
// (the SAT-competition convention), 0 for unknown (budget or timeout
// expired; a "c timeout"-style comment names the cause), 1 for errors.
//
// -metrics-addr serves live telemetry (/metrics Prometheus text,
// /metrics.json, /healthz, /debug/pprof) for the duration of the solve;
// -trace streams per-window search events as JSONL; -stats-json prints the
// final statistics as one JSON object after the result lines.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"neuroselect"
	"neuroselect/internal/cnf"
	"neuroselect/internal/obs"
	"neuroselect/internal/portfolio"
	"neuroselect/internal/solver"
)

func usage() {
	fmt.Fprint(flag.CommandLine.Output(), `usage: satsolve [flags] [file.cnf]

Reads a DIMACS CNF from the file, or from stdin when no file is given.

exit codes:
  10  satisfiable (s SATISFIABLE, model on v lines)
  20  unsatisfiable (s UNSATISFIABLE)
   0  unknown: a budget or the -timeout wall-clock deadline expired
      (the cause is printed as a comment line before "s UNKNOWN")
   1  error (bad input, bad flags, I/O failure)

flags:
`)
	flag.PrintDefaults()
}

func main() {
	// The solve runs inside run() so profile writers and file closes (all
	// deferred) execute before the SAT-competition exit code is raised.
	os.Exit(run())
}

func run() int {
	policy := flag.String("policy", "default", "clause-deletion policy: default, frequency, activity, size")
	conflicts := flag.Int64("conflicts", 0, "conflict budget (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "wall-clock timeout, e.g. 30s or 5m (0 = unlimited)")
	stats := flag.Bool("stats", false, "print solver statistics")
	model := flag.Bool("model", true, "print the satisfying assignment (v lines)")
	proofPath := flag.String("proof", "", "write a DRAT proof to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /healthz and /debug/pprof on this address during the solve (e.g. 127.0.0.1:9090; :0 picks a port, printed as a comment)")
	tracePath := flag.String("trace", "", "stream per-window solver events to this file as JSONL")
	statsJSON := flag.Bool("stats-json", false, "print the final solver statistics as one JSON object on the last stdout line")
	portfolioN := flag.Int("portfolio", 0, "solve with an N-worker shared-clause portfolio (0 = single solver)")
	deterministic := flag.Bool("deterministic", false, "with -portfolio: lockstep exchange rounds, output byte-identical for any worker count")
	flag.Usage = usage
	flag.Parse()

	if *portfolioN > 0 {
		// The portfolio carries its own per-worker policies, and the DRAT
		// writer is not threaded through it.
		switch {
		case *policy != "default":
			return fail(errors.New("-policy cannot be combined with -portfolio (workers carry their own policies)"))
		case *proofPath != "":
			return fail(errors.New("-proof cannot be combined with -portfolio"))
		}
	}
	if *deterministic && *portfolioN <= 0 {
		return fail(errors.New("-deterministic requires -portfolio"))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "satsolve:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush unreachable allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "satsolve:", err)
			}
		}()
	}

	var tracers []obs.Tracer
	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		obs.RegisterProcessMetrics(reg, time.Now())
		srv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Printf("c metrics listening on %s\n", srv.Addr())
		tracers = append(tracers, obs.NewMetricsTracer(reg))
	}
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			return fail(err)
		}
		jt := obs.NewJSONLTracer(tf)
		if reg != nil {
			jt.CountDropsIn(reg) // lost trace events surface on /metrics
		}
		defer func() {
			if err := jt.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "satsolve: trace:", err)
			}
			if n := jt.Dropped(); n > 0 {
				fmt.Fprintf(os.Stderr, "satsolve: trace: %d events lost to a write error\n", n)
			}
			tf.Close()
		}()
		tracers = append(tracers, jt)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		in = f
	}
	f, err := cnf.ParseDIMACS(in)
	if err != nil {
		return fail(err)
	}
	if *portfolioN > 0 {
		return runPortfolio(f, portfolio.Config{
			Workers:       *portfolioN,
			Deterministic: *deterministic,
			MaxConflicts:  *conflicts,
			Obs:           reg,
			Tracer:        obs.Multi(tracers...),
		}, *timeout, *stats, *model, *statsJSON)
	}
	cfg := neuroselect.SolveConfig{
		Policy:       *policy,
		MaxConflicts: *conflicts,
		Timeout:      *timeout,
		Tracer:       obs.Multi(tracers...),
	}
	var proofFile *os.File
	if *proofPath != "" {
		proofFile, err = os.Create(*proofPath)
		if err != nil {
			return fail(err)
		}
		defer proofFile.Close()
		cfg.Proof = neuroselect.NewProofWriter(proofFile)
	}
	res, err := neuroselect.SolveContext(context.Background(), f, cfg)
	if err != nil && !errors.Is(err, neuroselect.ErrSolvePanic) {
		return fail(err)
	}
	if cfg.Proof != nil {
		if err := cfg.Proof.Flush(); err != nil {
			return fail(err)
		}
	}
	if *stats {
		st := res.Stats
		fmt.Printf("c policy=%s decisions=%d propagations=%d conflicts=%d restarts=%d reductions=%d learned=%d deleted=%d\n",
			*policy, st.Decisions, st.Propagations, st.Conflicts, st.Restarts, st.Reductions, st.Learned, st.Deleted)
	}
	code := 0
	switch res.Status {
	case solver.Sat:
		fmt.Println("s SATISFIABLE")
		if *model {
			fmt.Print("v")
			for v := 1; v <= f.NumVars; v++ {
				l := v
				if !res.Model[v] {
					l = -v
				}
				fmt.Printf(" %d", l)
			}
			fmt.Println(" 0")
		}
		code = 10
	case solver.Unsat:
		fmt.Println("s UNSATISFIABLE")
		code = 20
	default:
		if c := stopComment(res.Stop); c != "" {
			fmt.Println("c " + c)
		}
		fmt.Println("s UNKNOWN")
	}
	if *statsJSON {
		if err := printStatsJSON(*policy, res); err != nil {
			return fail(err)
		}
	}
	return code
}

// printStatsJSON emits the final statistics as one JSON object on stdout;
// the schema is solver.Stats' JSON tags wrapped with the outcome.
func printStatsJSON(policy string, res neuroselect.Result) error {
	doc := struct {
		Status string       `json:"status"`
		Policy string       `json:"policy"`
		Stop   string       `json:"stop,omitempty"`
		Stats  solver.Stats `json:"stats"`
	}{Status: res.Status.String(), Policy: policy, Stats: res.Stats}
	if res.Stop != nil {
		doc.Stop = res.Stop.Error()
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// stopComment maps an Unknown result's stop cause to the comment line
// printed before "s UNKNOWN".
func stopComment(stop error) string {
	switch {
	case stop == nil:
		return ""
	case errors.Is(stop, solver.ErrDeadline):
		return "timeout"
	case errors.Is(stop, solver.ErrCanceled):
		return "canceled"
	case errors.Is(stop, solver.ErrConflictBudget):
		return "conflict budget exhausted"
	case errors.Is(stop, solver.ErrPropagationBudget):
		return "propagation budget exhausted"
	case errors.Is(stop, solver.ErrSolvePanic):
		return "internal failure contained: " + stop.Error()
	default:
		return stop.Error()
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "satsolve:", err)
	return 1
}
