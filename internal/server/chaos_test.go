package server

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"neuroselect/internal/faultpoint"
	"neuroselect/internal/obs"
	"neuroselect/internal/portfolio"
)

// The chaos harness: seed-deterministic fault schedules over the server's
// faultpoint sites, each driving a full serve/drain cycle and then
// checking the durability invariants:
//
//   - no job lost: every acknowledged (202) async job reaches a terminal
//     state before Drain returns;
//   - no job double-completed: a second completion would double-close the
//     job's done channel and panic the run;
//   - no goroutine leaked: the process returns to its pre-server
//     goroutine count;
//   - metrics consistent: the request counters agree exactly with the
//     responses the harness observed;
//   - the journal is empty after a clean drain — unless the schedule
//     injected journal-append faults, which legitimately drop records
//     (durability degrades to at-least-once, never loss).
//
// Schedules are deterministic in their seed: a failure names the seed,
// and re-running that one subtest reproduces the same arming.
const chaosSchedules = 200

// chaosSites lists every server faultpoint — plus the model-inference
// site, the selector's failure domain — with the fault kinds a schedule
// may arm there. Panics are only injected at the worker-solve site, where
// containment is part of the contract; handler-side panics would tear
// HTTP responses mid-write and prove nothing about the server.
var chaosSites = []struct {
	site   faultpoint.Site
	panics bool
	delays bool
}{
	{faultpoint.ServerJournalAppend, false, false},
	{faultpoint.ServerJournalReplay, false, false},
	{faultpoint.ServerCacheGet, false, false},
	{faultpoint.ServerCachePut, false, false},
	{faultpoint.ServerEnqueue, false, false},
	{faultpoint.ServerWorkerSolve, true, true},
	{faultpoint.ModelInference, false, false},
	{faultpoint.ServerDrain, false, true},
}

func TestChaosScheduleInvariants(t *testing.T) {
	n := chaosSchedules
	if testing.Short() {
		n = 25
	}
	sel := testSelector() // shared across schedules; Choose holds no state
	for i := 0; i < n; i++ {
		seed := int64(i)*7919 + 13
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			runChaosSchedule(t, seed, sel)
		})
	}
}

// armSchedule arms a seed-deterministic subset of the chaos sites and
// reports whether journal appends can fail under it.
func armSchedule(rng *rand.Rand) (appendFaulty bool) {
	for _, cs := range chaosSites {
		if rng.Intn(2) == 0 {
			continue
		}
		f := faultpoint.Fault{
			Err:   errors.New("chaos"),
			Skip:  rng.Intn(3),
			Times: rng.Intn(4), // 0 = every eligible hit
		}
		if cs.panics && rng.Intn(3) == 0 {
			f.Err, f.PanicValue = nil, "chaos panic"
		}
		if cs.delays && rng.Intn(3) == 0 {
			f.Err, f.PanicValue, f.Delay = nil, nil, time.Duration(1+rng.Intn(3))*time.Millisecond
		}
		if cs.site == faultpoint.ServerDrain {
			// Only delays here: drain ignores injected errors by contract.
			if f.Delay == 0 {
				continue
			}
			f.Err, f.PanicValue = nil, nil
		}
		faultpoint.Arm(cs.site, f)
		if cs.site == faultpoint.ServerJournalAppend {
			appendFaulty = true
		}
	}
	return appendFaulty
}

func runChaosSchedule(t *testing.T, seed int64, sel *portfolio.Selector) {
	t.Cleanup(faultpoint.Reset)
	rng := rand.New(rand.NewSource(seed))
	baseline := runtime.NumGoroutine()

	appendFaulty := armSchedule(rng)
	dir := t.TempDir()
	cfg := Config{
		Workers:    2,
		QueueDepth: 4,
		MaxTimeout: 20 * time.Second,
		JobHistory: 64,
		JournalDir: dir,
	}
	if rng.Intn(2) == 0 {
		cfg.Selector = sel
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("seed %d: New: %v", seed, err)
	}
	h := s.Handler()

	// The request mix: two identical async submits (a dedup pair), one
	// identical sync solve riding the same flight, plus distinct sync and
	// async jobs. All tiny instances — the interleavings, not the search,
	// are under test.
	type call struct {
		path string // "solve" or "jobs"
		body string
	}
	calls := []call{
		{"jobs", satCNF},
		{"jobs", satCNF},
		{"solve", satCNF},
		{"jobs", unsatCNF},
		{"solve", "p cnf 2 2\n1 2 0\n-1 0\n"},
		{"jobs", "p cnf 3 1\n3 0\n"},
	}
	var (
		mu       sync.Mutex
		accepted []string
		seen     = map[string]map[int]int{"solve": {}, "jobs": {}}
	)
	var wg sync.WaitGroup
	for _, c := range calls {
		wg.Add(1)
		go func(c call) {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/"+c.path, strings.NewReader(c.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			mu.Lock()
			defer mu.Unlock()
			seen[c.path][rec.Code]++
			if c.path == "jobs" && (rec.Code == http.StatusAccepted || rec.Code == http.StatusOK) {
				var v jobView
				if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
					t.Errorf("seed %d: decode submit reply %q: %v", seed, rec.Body.Bytes(), err)
					return
				}
				accepted = append(accepted, v.ID)
			}
		}(c)
	}
	wg.Wait()

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("seed %d: drain: %v", seed, err)
	}

	// Invariant: no acknowledged job was lost, and each is terminal.
	for _, id := range accepted {
		j, ok := s.jobs.Get(id)
		if !ok {
			t.Errorf("seed %d: accepted job %s lost", seed, id)
			continue
		}
		select {
		case <-j.done:
		default:
			t.Errorf("seed %d: accepted job %s not terminal after drain", seed, id)
		}
		if state, _, _, _ := j.snapshot(); state != JobDone {
			t.Errorf("seed %d: job %s state %q after drain", seed, id, state)
		}
	}

	// Invariant: the request counters agree with the observed responses.
	for endpoint, codes := range seen {
		for code, want := range codes {
			got := s.Registry().Counter("neuroselect_server_requests_total", "",
				obs.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)}).Value()
			if got != int64(want) {
				t.Errorf("seed %d: requests_total{%s,%d} = %d, want %d", seed, endpoint, code, got, want)
			}
		}
	}

	// Invariant: a cleanly drained journal holds no pending work — unless
	// append faults could have dropped records.
	if !appendFaulty {
		if recs := readJournalLines(t, dir); len(recs) != 0 {
			t.Errorf("seed %d: journal holds %d records after clean drain: %+v", seed, len(recs), recs)
		}
	}

	// Invariant: no goroutines leaked (retry timers, workers, waiters).
	faultpoint.Reset()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("seed %d: goroutines leaked: baseline %d, now %d\n%s",
				seed, baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(2 * time.Millisecond)
	}
}
