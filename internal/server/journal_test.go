package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/obs"
)

// writeJournalFile seeds a journal directory with raw JSONL lines, the
// way a crashed process would have left them.
func writeJournalFile(t *testing.T, dir string, lines ...string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	data := strings.Join(lines, "\n")
	if len(lines) > 0 {
		data += "\n"
	}
	if err := os.WriteFile(filepath.Join(dir, journalFileName), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readJournalLines returns the journal's current records.
func readJournalLines(t *testing.T, dir string) []journalRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	var recs []journalRecord
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

func mustJSON(t *testing.T, rec journalRecord) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, pending, err := openJournal(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal reported %d pending jobs", len(pending))
	}
	j.append(&journalRecord{Type: "submit", ID: "j00000001", Key: "auto:abc", CNF: satCNF, TimeoutNS: int64(time.Second)})
	j.append(&journalRecord{Type: "start", ID: "j00000001"}) // as older versions wrote
	j.append(&journalRecord{Type: "done", ID: "j00000001", Status: "ok"})
	j.Close()

	j2, pending, err := openJournal(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(pending) != 0 {
		t.Fatalf("completed job resurfaced as pending: %+v", pending)
	}
}

func TestJournalReplayFindsPendingJobs(t *testing.T) {
	dir := t.TempDir()
	writeJournalFile(t, dir,
		mustJSON(t, journalRecord{Type: "submit", ID: "j00000002", Key: "auto:k2", CNF: satCNF, TimeoutNS: int64(2 * time.Second)}),
		mustJSON(t, journalRecord{Type: "submit", ID: "j00000001", Key: "auto:k1", CNF: unsatCNF, TimeoutNS: int64(time.Second)}),
		mustJSON(t, journalRecord{Type: "start", ID: "j00000001"}),
		mustJSON(t, journalRecord{Type: "done", ID: "j00000002", Status: "ok"}),
	)
	j, pending, err := openJournal(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(pending) != 1 {
		t.Fatalf("pending = %d jobs, want 1", len(pending))
	}
	got := pending[0]
	if got.ID != "j00000001" || got.CNF != unsatCNF || got.TimeoutNS != int64(time.Second) {
		t.Fatalf("wrong pending record: %+v", got)
	}
	// Replay compacts: the file now holds exactly the pending submit.
	recs := readJournalLines(t, dir)
	if len(recs) != 1 || recs[0].Type != "submit" || recs[0].ID != "j00000001" {
		t.Fatalf("post-replay journal = %+v, want the single pending submit", recs)
	}
}

func TestJournalSkipsTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	torn := mustJSON(t, journalRecord{Type: "submit", ID: "j00000002", CNF: satCNF})
	writeJournalFile(t, dir,
		mustJSON(t, journalRecord{Type: "submit", ID: "j00000001", CNF: satCNF}),
		torn[:len(torn)/2], // crash mid-append
	)
	var errOps []string
	j, pending, err := openJournal(dir, 0, func(op string) { errOps = append(errOps, op) })
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(pending) != 1 || pending[0].ID != "j00000001" {
		t.Fatalf("pending = %+v, want just the intact submit", pending)
	}
	if len(errOps) != 1 || errOps[0] != "replay" {
		t.Fatalf("error ops = %v, want one replay error for the torn line", errOps)
	}
}

func TestJournalCompactionBoundsGrowth(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		id := "j" + strings.Repeat("0", 7) + string(rune('0'+i%10))
		j.append(&journalRecord{Type: "submit", ID: id, CNF: satCNF})
		j.append(&journalRecord{Type: "start", ID: id})
		j.append(&journalRecord{Type: "done", ID: id, Status: "ok"})
	}
	j.mu.Lock()
	obsolete := j.obsolete
	j.mu.Unlock()
	if obsolete >= 4+3 {
		t.Fatalf("obsolete backlog = %d, compaction is not keeping up", obsolete)
	}
	j.Close()
	if recs := readJournalLines(t, dir); len(recs) != 0 {
		t.Fatalf("drained journal holds %d records, want 0", len(recs))
	}
}

// TestServerReplaysPendingJournal is the crash-recovery contract: a journal
// holding a submit without a done (what kill -9 after the 202 leaves
// behind) is re-admitted at startup under its original id and reaches a
// terminal state exactly once.
func TestServerReplaysPendingJournal(t *testing.T) {
	dir := t.TempDir()
	writeJournalFile(t, dir,
		mustJSON(t, journalRecord{Type: "submit", ID: "j00000007", Key: "auto:" + CanonicalHash(parse(t, satCNF)),
			CNF: satCNF, TimeoutNS: int64(10 * time.Second)}),
		mustJSON(t, journalRecord{Type: "start", ID: "j00000007"}),
	)
	s, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir})

	j, ok := s.jobs.Get("j00000007")
	if !ok {
		t.Fatal("replayed job not found in the job store under its original id")
	}
	select {
	case <-j.done:
	case <-time.After(10 * time.Second):
		t.Fatal("replayed job never completed")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j00000007")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Status != JobDone || v.Error != "" || len(v.Result) == 0 {
		t.Fatalf("replayed job view = %+v, want a clean done result", v)
	}
	var sr solveResponse
	if err := json.Unmarshal(v.Result, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Status != "SAT" {
		t.Fatalf("replayed solve status = %q, want SAT", sr.Status)
	}
	if got := s.Registry().Counter("neuroselect_server_journal_replayed_total", "", nil).Value(); got != 1 {
		t.Fatalf("replayed counter = %d, want 1", got)
	}

	// A fresh submission must not collide with the replayed id space.
	id := submitJob(t, ts.URL, unsatCNF)
	if id <= "j00000007" {
		t.Fatalf("fresh job id %q did not advance past the replayed id", id)
	}

	// A clean drain leaves the journal with no pending work.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if recs := readJournalLines(t, dir); len(recs) != 0 {
		t.Fatalf("journal after drain = %+v, want empty", recs)
	}
}

// TestServerJournalsAsyncLifecycle: a normally-completed async job leaves
// nothing pending for a future replay.
func TestServerJournalsAsyncLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	id := submitJob(t, ts.URL, satCNF)
	waitJobState(t, ts.URL, id, JobDone)

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if recs := readJournalLines(t, dir); len(recs) != 0 {
		t.Fatalf("journal after lifecycle = %+v, want empty", recs)
	}

	// A second process over the same directory replays nothing.
	s2, err := New(Config{Workers: 1, JournalDir: dir, MaxTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Registry().Counter("neuroselect_server_journal_replayed_total", "", nil).Value(); got != 0 {
		t.Fatalf("second process replayed %d jobs, want 0", got)
	}
}

// TestReplayDeduplicatesIdenticalPending: two pending journaled jobs with
// the same key share one flight at replay — the restart does not double
// the solving work a crash interrupted.
func TestReplayDeduplicatesIdenticalPending(t *testing.T) {
	dir := t.TempDir()
	key := "auto:" + CanonicalHash(parse(t, satCNF))
	writeJournalFile(t, dir,
		mustJSON(t, journalRecord{Type: "submit", ID: "j00000001", Key: key, CNF: satCNF, TimeoutNS: int64(10 * time.Second)}),
		mustJSON(t, journalRecord{Type: "submit", ID: "j00000002", Key: key, CNF: satCNF, TimeoutNS: int64(10 * time.Second)}),
	)
	s, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	for _, id := range []string{"j00000001", "j00000002"} {
		waitJobState(t, ts.URL, id, JobDone)
	}
	if got := s.Registry().Counter("neuroselect_server_dedup_total", "", obs.Labels{"path": "replay"}).Value(); got != 1 {
		t.Fatalf("replay dedup counter = %d, want 1", got)
	}
}

// TestReplayKeepsPortfolio: a journaled ?portfolio= job replays as the
// portfolio solve it was submitted as, so its result carries the
// portfolio block, and the answer it caches under its portfolio variant
// serves a live request of that variant.
func TestReplayKeepsPortfolio(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	// Hold the worker, so the copy taken below has the submit and no done.
	faultpoint.Arm(faultpoint.ServerWorkerSolve, faultpoint.Fault{Delay: time.Second})
	body := phpDIMACS(t, 6)
	resp := post(t, ts.URL+"/v1/jobs?portfolio=2", body)
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalFileName))
	if err != nil {
		t.Fatal(err)
	}
	copyDir := t.TempDir()
	writeJournalFile(t, copyDir, strings.TrimSuffix(string(data), "\n"))
	faultpoint.Reset()

	_, ts2 := newTestServer(t, Config{Workers: 1, JournalDir: copyDir})
	v = waitJobState(t, ts2.URL, v.ID, JobDone)
	var replayed solveResponse
	if err := json.Unmarshal(v.Result, &replayed); err != nil {
		t.Fatalf("replayed job %+v: %v", v, err)
	}
	if replayed.Portfolio == nil || replayed.Portfolio.Workers != 2 {
		t.Fatalf("replayed result portfolio = %+v, want a block with 2 workers", replayed.Portfolio)
	}
	resp = post(t, ts2.URL+"/v1/solve?portfolio=2", body)
	cache := resp.Header.Get("X-Cache")
	live, _ := decodeSolve(t, resp)
	if cache != "hit" || live.Portfolio == nil || live.Portfolio.Workers != 2 {
		t.Fatalf("live portfolio solve: X-Cache %q, portfolio %+v; want a hit with 2 workers", cache, live.Portfolio)
	}
}

// FuzzJournalReplay feeds arbitrary bytes to startup replay as the
// journal file. New must not panic: it either fails, or every job it
// replayed reaches done once the server drains, and the drain leaves the
// journal empty.
func FuzzJournalReplay(f *testing.F) {
	hashOf := func(s string) string {
		g, err := cnf.Parse([]byte(s))
		if err != nil {
			f.Fatal(err)
		}
		return CanonicalHash(g)
	}
	record := func(rec journalRecord) string {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return string(b)
	}
	key := "auto:" + hashOf(satCNF)
	torn := record(journalRecord{Type: "submit", ID: "j00000002", CNF: satCNF})
	for _, lines := range [][]string{
		{
			record(journalRecord{Type: "submit", ID: "j00000001", Key: "auto:abc", CNF: satCNF, TimeoutNS: int64(time.Second)}),
			record(journalRecord{Type: "start", ID: "j00000001"}),
			record(journalRecord{Type: "done", ID: "j00000001", Status: "ok"}),
		},
		{
			record(journalRecord{Type: "submit", ID: "j00000002", Key: "auto:k2", CNF: satCNF, TimeoutNS: int64(2 * time.Second)}),
			record(journalRecord{Type: "submit", ID: "j00000001", Key: "auto:k1", CNF: unsatCNF, TimeoutNS: int64(time.Second)}),
			record(journalRecord{Type: "start", ID: "j00000001"}),
			record(journalRecord{Type: "done", ID: "j00000002", Status: "ok"}),
		},
		{
			record(journalRecord{Type: "submit", ID: "j00000001", CNF: satCNF}),
			torn[:len(torn)/2],
		},
		{
			record(journalRecord{Type: "submit", ID: "j00000001", Key: key, CNF: satCNF, TimeoutNS: int64(10 * time.Second)}),
			record(journalRecord{Type: "submit", ID: "j00000002", Key: key, CNF: satCNF, TimeoutNS: int64(10 * time.Second)}),
		},
		{
			record(journalRecord{Type: "submit", ID: "j00000003", Key: "portfolio2:" + hashOf(unsatCNF), CNF: unsatCNF, Portfolio: 2}),
			record(journalRecord{Type: "submit", ID: "j00000004", CNF: unsatCNF, Portfolio: maxPortfolioWorkers + 1}),
			record(journalRecord{Type: "submit", ID: "j00000005", CNF: satCNF, Policy: "banana", ReqID: "r"}),
		},
		{
			record(journalRecord{Type: "submit", CNF: satCNF}),
		},
	} {
		f.Add([]byte(strings.Join(lines, "\n") + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// The memory cap bounds the variables a replayed formula may
		// declare, so an input cannot make the solver allocate much.
		s, err := New(Config{Workers: 1, MaxTimeout: 5 * time.Millisecond, JournalDir: dir, SessionMaxMem: 1 << 20})
		if err != nil {
			return
		}
		defer s.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
		s.jobs.mu.Lock()
		defer s.jobs.mu.Unlock()
		for id, j := range s.jobs.byID {
			if state, _, _, _ := j.snapshot(); state != JobDone {
				t.Errorf("replayed job %q is %s after the drain", id, state)
			}
		}
		if left, err := os.ReadFile(filepath.Join(dir, journalFileName)); err != nil || len(left) != 0 {
			t.Errorf("journal after a clean drain: %q (err %v), want empty", left, err)
		}
	})
}

// TestCacheHitJournalsNothing: an async cache hit never wrote a submit
// record, so it writes no done record either.
func TestCacheHitJournalsNothing(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	waitJobState(t, ts.URL, submitJob(t, ts.URL, satCNF), JobDone)
	hit := submitJob(t, ts.URL, satCNF)
	if v := pollJob(t, ts.URL, hit); !v.Cached || v.Status != JobDone {
		t.Fatalf("second submit = %+v, want a done cache hit", v)
	}
	for _, rec := range readJournalLines(t, dir) {
		if rec.ID == hit {
			t.Fatalf("cache hit %s journaled %+v", hit, rec)
		}
	}
}
