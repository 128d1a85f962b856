package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"neuroselect/internal/faultpoint"
)

// TestAsyncWorkerFaultEndsJobOnce: an async job whose worker solve fails,
// by an injected error or an injected panic, runs once. It reaches done
// with its 500 after one ServerWorkerSolve hit, and the journal closes it
// with one done record of status error.
func TestAsyncWorkerFaultEndsJobOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault faultpoint.Fault
		cause string
	}{
		{"error", faultpoint.Fault{Err: errors.New("flaky disk")}, "flaky disk"},
		{"panic", faultpoint.Fault{PanicValue: "poisoned instance"}, "poisoned instance"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			dir := t.TempDir()
			s, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir})
			faultpoint.Arm(faultpoint.ServerWorkerSolve, tc.fault)

			id := submitJob(t, ts.URL, satCNF)
			v := waitJobState(t, ts.URL, id, JobDone)
			if !strings.HasPrefix(v.Error, "500: ") || !strings.Contains(v.Error, tc.cause) {
				t.Fatalf("job error = %q, want the 500 with the injected cause", v.Error)
			}
			// A job releases its pending slot after its done record is
			// written.
			s.pending.Wait()
			if hits := faultpoint.Hits(faultpoint.ServerWorkerSolve); hits != 1 {
				t.Errorf("worker solves = %d, want 1", hits)
			}
			recs := readJournalLines(t, dir)
			dones := 0
			for _, rec := range recs {
				if rec.Type == "done" {
					dones++
				}
			}
			want := journalRecord{Type: "done", ID: id, Status: "error"}
			if n := len(recs); n == 0 || dones != 1 || recs[n-1] != want {
				t.Fatalf("journal = %+v, want it to end with the job's one done record of status error", recs)
			}
		})
	}
}

// TestSyncSolveNeverRetries: a sync solve runs once too, so a worker
// fault surfaces immediately as its 500.
func TestSyncSolveNeverRetries(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	_, ts := newTestServer(t, Config{Workers: 1})
	faultpoint.Arm(faultpoint.ServerWorkerSolve, faultpoint.Fault{Err: errors.New("flaky disk")})

	resp := post(t, ts.URL+"/v1/solve", satCNF)
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("sync worker fault = %d, want 500", resp.StatusCode)
	}
	if hits := faultpoint.Hits(faultpoint.ServerWorkerSolve); hits != 1 {
		t.Errorf("worker solves = %d, want 1", hits)
	}
}

// TestSolverPanicAnswersUnknownOnce: a solver panic that the solver
// contains answers UNKNOWN with stop "panic" on the job's one run, async
// as sync. The search is a function of formula and policy, so a second
// run would only panic again.
func TestSolverPanicAnswersUnknownOnce(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	_, ts := newTestServer(t, Config{Workers: 1})
	faultpoint.Arm(faultpoint.SolverReduce, faultpoint.Fault{PanicValue: "reduce invariant violated"})
	body := reducingSAT(t)

	sr, _ := decodeSolve(t, post(t, ts.URL+"/v1/solve", body))
	if sr.Status != "UNKNOWN" || sr.Stop != "panic" {
		t.Fatalf("sync solve = %s/%q, want UNKNOWN/panic", sr.Status, sr.Stop)
	}
	if hits := faultpoint.Hits(faultpoint.SolverReduce); hits != 1 {
		t.Fatalf("sync reductions reached = %d, want 1", hits)
	}

	v := waitJobState(t, ts.URL, submitJob(t, ts.URL, body), JobDone)
	if v.Error != "" {
		t.Fatalf("async job failed: %s", v.Error)
	}
	var async solveResponse
	if err := json.Unmarshal(v.Result, &async); err != nil {
		t.Fatal(err)
	}
	if async.Status != "UNKNOWN" || async.Stop != "panic" {
		t.Fatalf("async job = %s/%q, want UNKNOWN/panic", async.Status, async.Stop)
	}
	if hits := faultpoint.Hits(faultpoint.SolverReduce); hits != 2 {
		t.Errorf("reductions reached = %d, want 2 (one run per request)", hits)
	}
}

// TestCacheHitSubmitPollRace polls the id an async cache-hit submit is
// about to take while the submit completes it. Every poll must read a
// whole view, and the race detector must see every write to the job
// ordered before the poll's read.
func TestCacheHitSubmitPollRace(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	for i := 1; i <= 20; i++ {
		body := fmt.Sprintf("p cnf %d 1\n%d 0\n", i, i)
		if rec := serve("POST", "/v1/solve", body); rec.Code != http.StatusOK {
			t.Fatalf("warm-up solve = %d: %s", rec.Code, rec.Body)
		}
		id := fmt.Sprintf("/v1/jobs/j%08d", i) // ids are sequential
		submitted := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				late := false
				select {
				case <-submitted:
					late = true
				default:
				}
				rec := serve("GET", id, "")
				if rec.Code == http.StatusNotFound {
					if late {
						t.Errorf("poll %s = 404 after its submit returned", id)
						return
					}
					continue // not submitted yet
				}
				var v jobView
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
					t.Errorf("poll %s: %v", id, err)
					return
				}
				if v.Status == JobDone {
					if !v.Cached || len(v.Result) == 0 {
						t.Errorf("poll %s = %+v, want the cached result", id, v)
					}
					return
				}
			}
		}()
		rec := serve("POST", "/v1/jobs", body)
		close(submitted)
		wg.Wait()
		var v jobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || !v.Cached || "/v1/jobs/"+v.ID != id {
			t.Fatalf("submit = %d %+v, want a cache hit under %s", rec.Code, v, id)
		}
	}
}
