package portfolio

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"neuroselect/internal/faultpoint"
	"neuroselect/internal/gen"
	"neuroselect/internal/obs"
	"neuroselect/internal/solver"
)

// renderReport canonicalizes everything a deterministic portfolio solve
// promises to reproduce: answer, winner, rounds, full Stats, the
// propagation-frequency hash, the pseudo-time, and every worker's exchange
// ledger (including the exported-clause digest). Wall-clock time is the
// one field deliberately excluded.
func renderReport(rep ParallelReport) string {
	return fmt.Sprintf("status=%s winner=%q idx=%d rounds=%d pseudo=%s stats=%+v pf=%016x ex=%+v fail=%v",
		rep.Result.Status, rep.Winner, rep.WinnerIndex, rep.Rounds, rep.PseudoTime,
		rep.Result.Stats, rep.PropFreqHash, rep.Exchange, rep.Failures)
}

// goldenPortfolioInstances is the fixed-seed set the determinism suite
// pins: UNSAT, SAT, and random instances drawn from the solver's golden
// families.
func goldenPortfolioInstances() []gen.Instance {
	return []gen.Instance{
		gen.Pigeonhole(7),
		gen.RandomKSAT(100, 426, 3, 11),
		gen.NQueens(8),
		gen.Tseitin(16, 3, false, 4),
	}
}

// TestDeterministicByteIdenticalAcrossWorkerCounts is the determinism
// golden test: with Deterministic set, the portfolio's answer, Stats,
// propFreq hash, and shared-clause digests are byte-identical for worker
// counts 1, 2, 4, and NumCPU, and across repeated runs.
func TestDeterministicByteIdenticalAcrossWorkerCounts(t *testing.T) {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	for _, inst := range goldenPortfolioInstances() {
		inst := inst
		t.Run(inst.Name, func(t *testing.T) {
			var want string
			for _, w := range counts {
				rep, err := SolveParallel(inst.F, Config{Deterministic: true, Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if rep.Result.Status == solver.Unknown {
					t.Fatalf("workers=%d: golden instance undecided", w)
				}
				if rep.Result.Status == solver.Sat && !rep.Result.Model.Satisfies(inst.F) {
					t.Fatalf("workers=%d: model does not satisfy formula", w)
				}
				got := renderReport(rep)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("workers=%d diverged:\n got %s\nwant %s", w, got, want)
				}
			}
			// Repeated run at a fixed worker count: same bytes again.
			rep, err := SolveParallel(inst.F, Config{Deterministic: true, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if got := renderReport(rep); got != want {
				t.Fatalf("repeat run diverged:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestDeterministicExchangeIsNonVacuous guards the golden test against
// testing an exchange that never fires: on php-7 the ensemble must
// actually export, receive, and install foreign clauses.
func TestDeterministicExchangeIsNonVacuous(t *testing.T) {
	rep, err := SolveParallel(gen.Pigeonhole(7).F, Config{Deterministic: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var exported, received int64
	for _, ex := range rep.Exchange {
		exported += ex.Exported
		received += ex.Imported
	}
	if exported == 0 {
		t.Fatal("no worker exported a clause: the exchange filter is vacuous")
	}
	if received == 0 {
		t.Fatal("no worker received a clause: the exchange wiring is vacuous")
	}
	if rep.Result.Stats.Imported == 0 {
		t.Fatal("the winner installed no foreign clause")
	}
	if rep.Rounds == 0 {
		t.Fatal("the solve finished without a single exchange round")
	}
}

// TestFreeRunningPortfolioSolves exercises the throughput mode: N workers
// with exchange on decide SAT and UNSAT instances and the report carries a
// coherent winner.
func TestFreeRunningPortfolioSolves(t *testing.T) {
	for _, inst := range []gen.Instance{gen.NQueens(8), gen.Pigeonhole(7)} {
		rep, err := SolveParallel(inst.F, Config{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if rep.Result.Status == solver.Unknown {
			t.Fatalf("%s: undecided", inst.Name)
		}
		if inst.Expected == gen.ExpectUnsat && rep.Result.Status != solver.Unsat {
			t.Fatalf("%s: got %v, want UNSAT", inst.Name, rep.Result.Status)
		}
		if rep.Result.Status == solver.Sat && !rep.Result.Model.Satisfies(inst.F) {
			t.Fatalf("%s: model does not satisfy formula", inst.Name)
		}
		if rep.WinnerIndex < 0 || rep.WinnerIndex >= rep.Workers || rep.Winner == "" {
			t.Fatalf("%s: incoherent winner %q/%d", inst.Name, rep.Winner, rep.WinnerIndex)
		}
	}
}

// TestTinyQueueDropsNeverBlock pins the bounded-queue contract: with a
// 1-slot queue the portfolio still terminates (export never blocks) and
// the overflow is visible in the Dropped counters.
func TestTinyQueueDropsNeverBlock(t *testing.T) {
	rep, err := SolveParallel(gen.Pigeonhole(8).F, Config{Workers: 4, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Status != solver.Unsat {
		t.Fatalf("got %v, want UNSAT", rep.Result.Status)
	}
	var dropped int64
	for _, ex := range rep.Exchange {
		dropped += ex.Dropped
	}
	if dropped == 0 {
		t.Fatal("a 1-slot queue on php-8 must overflow; Dropped stayed 0")
	}
}

// TestRaceDeterministicReproduces pins the deterministic race baseline:
// byte-identical winner, result, and pseudo-time for any OS worker count,
// with the same answer RaceContext would find.
func TestRaceDeterministicReproduces(t *testing.T) {
	inst := gen.Pigeonhole(7)
	var want string
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		rep, err := RaceDeterministic(t.Context(), inst.F, 0, w)
		if err != nil {
			t.Fatalf("osWorkers=%d: %v", w, err)
		}
		if rep.Result.Status != solver.Unsat {
			t.Fatalf("osWorkers=%d: got %v, want UNSAT", w, rep.Result.Status)
		}
		if rep.Winner != "default" && rep.Winner != "frequency" {
			t.Fatalf("osWorkers=%d: winner %q is not a policy name", w, rep.Winner)
		}
		got := fmt.Sprintf("winner=%s wall=%s stats=%+v", rep.Winner, rep.WallTime, rep.Result.Stats)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("osWorkers=%d diverged:\n got %s\nwant %s", w, got, want)
		}
	}
}

// TestSelectorDrivesWorkerZero checks that a selector-equipped portfolio
// consults the model exactly once and worker 0 carries its choice, on a
// formula whose worker 0 reaches a reduction.
func TestSelectorDrivesWorkerZero(t *testing.T) {
	m := freshModel()
	m.Threshold = 0 // always pick frequency if inference runs
	reg := obs.NewRegistry()
	sel := &Selector{Model: m, Obs: reg}
	f := gen.RandomKSAT(80, 336, 3, 2).F
	rep, err := SolveParallel(f, Config{Workers: 2, Auto: sel.Defer(f, nil, nil), Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Exchange[0].Config; got != "w0:frequency:r128" {
		t.Fatalf("worker 0 config = %q, want the selector-chosen frequency policy", got)
	}
	if got := reg.Counter("neuroselect_portfolio_choices_total", "",
		obs.Labels{"policy": "frequency", "fallback": "none"}).Value(); got != 1 {
		t.Fatalf("choices_total{policy=frequency,fallback=none} = %d, want 1", got)
	}
}

// TestWorkerZeroWithoutReductionSkipsInference checks that worker 0 of a
// portfolio whose search never reduces names the default policy and never
// reaches the model.
func TestWorkerZeroWithoutReductionSkipsInference(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm(faultpoint.ModelInference, faultpoint.Fault{Err: errors.New("model down")})
	m := freshModel()
	m.Threshold = 0
	for _, det := range []bool{false, true} {
		f := gen.NQueens(6).F
		rep, err := SolveParallel(f, Config{Workers: 2, Auto: NewSelector(m).Defer(f, nil, nil), Deterministic: det})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Exchange[0].Config; got != "w0:default:r128" {
			t.Errorf("deterministic=%v: worker 0 config = %q, want w0:default:r128", det, got)
		}
		if rep.WinnerIndex == 0 && rep.Winner != "w0:default:r128" {
			t.Errorf("deterministic=%v: winner %q", det, rep.Winner)
		}
	}
	if got := faultpoint.Hits(faultpoint.ModelInference); got != 0 {
		t.Errorf("model-inference faultpoint hit %d times by searches that never reduced", got)
	}
}
