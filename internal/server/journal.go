package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"neuroselect/internal/faultpoint"
)

// The job journal is the server's write-ahead log for async solves: one
// append-only JSONL file (journal.jsonl in the -journal directory) whose
// records trace each job's lifecycle. A "submit" record carries everything
// needed to re-create the job — id, cache/dedup key, pinned policy,
// timeout, and the DIMACS body — and is fsync'd before the client receives
// its 202, so a crash (or kill -9) at any later point leaves the job
// recoverable. A "done" record marks the terminal state; a submit without
// a matching done is a pending job that startup replay re-admits through
// the normal admission queue. Replay reads nothing else: it skips any
// other record type, such as the "start" records older versions wrote
// per solve attempt.
//
// The file only grows while the process runs, so a compaction pass
// rewrites it down to just the pending submits: at startup (after replay),
// at graceful shutdown, and inline whenever compactEvery obsolete records
// have accumulated. Compaction writes a temp file, fsyncs it, and renames
// it over the journal, so a crash mid-compaction leaves either the old or
// the new file, never a torn one. A torn final record from a crash
// mid-append is skipped by replay (it fails to decode), losing at most the
// single record being written at the moment of the crash.
//
// Failure model: journal I/O errors (including faultpoint-injected ones at
// ServerJournalAppend) degrade durability, never availability — the record
// is dropped, the error counter moves, and the request proceeds. A dropped
// "done" means replay may re-admit a completed job, so journaled serving
// is exactly-once under crashes and at-least-once under storage faults.

// journalRecord is one line of the job journal. Fields are never renamed,
// so a file an older version wrote still replays.
type journalRecord struct {
	Type      string `json:"type"`                 // "submit" | "done"
	ID        string `json:"id"`                   // job id, stable across restarts
	Key       string `json:"key,omitempty"`        // cache/singleflight key (submit)
	Policy    string `json:"policy,omitempty"`     // pinned policy name; "" = auto (submit)
	TimeoutNS int64  `json:"timeout_ns,omitempty"` // per-job solve deadline (submit)
	Trace     bool   `json:"trace,omitempty"`      // ?trace=1 job (submit)
	CNF       string `json:"cnf,omitempty"`        // DIMACS body (submit)
	Status    string `json:"status,omitempty"`     // "ok" | "error" | "shed" (done)
	ReqID     string `json:"req_id,omitempty"`     // X-Request-ID of the submit (submit)
	// Portfolio and Deterministic are a ?portfolio= job's worker count and
	// mode (submit).
	Portfolio     int  `json:"portfolio,omitempty"`
	Deterministic bool `json:"deterministic,omitempty"`
}

const journalFileName = "journal.jsonl"

// journal serializes appends and compactions of one journal file.
type journal struct {
	mu           sync.Mutex
	path         string
	f            *os.File
	live         map[string]*journalRecord // submit records without a done
	obsolete     int                       // records a compaction would drop
	compactEvery int
	onError      func(op string) // error counter hook (op: append, replay, compact)
}

// openJournal loads (or creates) the journal under dir, returning the
// pending jobs found by replay, sorted by id. The returned journal has
// already been compacted down to those pending submits, and compacts
// again once compactEvery obsolete records accumulate (<=0 → 256).
func openJournal(dir string, compactEvery int, onError func(op string)) (*journal, []*journalRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal dir: %w", err)
	}
	if compactEvery <= 0 {
		compactEvery = 256
	}
	if onError == nil {
		onError = func(string) {}
	}
	j := &journal{
		path:         filepath.Join(dir, journalFileName),
		live:         make(map[string]*journalRecord),
		compactEvery: compactEvery,
		onError:      onError,
	}
	pending, err := j.replay()
	if err != nil {
		return nil, nil, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.compactLocked(); err != nil {
		return nil, nil, err
	}
	return j, pending, nil
}

// replay scans the journal file and reconstructs the pending-job set.
// Records that fail to decode (a torn final write from a crash), submits
// without an id, and records the ServerJournalReplay faultpoint rejects
// are skipped and counted.
func (j *journal) replay() ([]*journalRecord, error) {
	f, err := os.Open(j.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal open: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 256<<20) // submits carry whole formulas
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if err := faultpoint.Hit(faultpoint.ServerJournalReplay); err != nil {
			j.onError("replay")
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			j.onError("replay")
			continue
		}
		switch rec.Type {
		case "submit":
			if rec.ID == "" { // no job could answer for it
				j.onError("replay")
				continue
			}
			r := rec
			j.live[rec.ID] = &r
		case "done":
			delete(j.live, rec.ID)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal scan: %w", err)
	}
	pending := make([]*journalRecord, 0, len(j.live))
	for _, rec := range j.live {
		pending = append(pending, rec)
	}
	sort.Slice(pending, func(a, b int) bool { return pending[a].ID < pending[b].ID })
	return pending, nil
}

// append writes one record and fsyncs it. Errors (real or injected) drop
// the record and move the error counter; the caller's request proceeds.
// A done record that closes no submit (a cache hit's, or a job's whose
// submit was dropped) is not written.
func (j *journal) append(rec *journalRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if rec.Type == "done" && j.live[rec.ID] == nil {
		return
	}
	if err := faultpoint.Hit(faultpoint.ServerJournalAppend); err != nil {
		j.onError("append")
		return
	}
	if j.f == nil { // closed (post-drain stragglers)
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		j.onError("append")
		return
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		j.onError("append")
		return
	}
	if err := j.f.Sync(); err != nil {
		j.onError("append")
		return
	}
	switch rec.Type {
	case "submit":
		j.live[rec.ID] = rec
	case "done":
		delete(j.live, rec.ID)
		j.obsolete += 2 // the submit and this done
	default: // any other record type is compaction fodder
		j.obsolete++
	}
	if j.obsolete >= j.compactEvery {
		if err := j.compactLocked(); err != nil {
			j.onError("compact")
		}
	}
}

// compactLocked rewrites the journal down to the live submit records via
// an fsync'd temp file and an atomic rename, then reopens the append
// handle. Callers hold j.mu.
func (j *journal) compactLocked() error {
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal compact: %w", err)
	}
	ids := make([]string, 0, len(j.live))
	for id := range j.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		line, err := json.Marshal(j.live[id])
		if err != nil {
			f.Close()
			return fmt.Errorf("journal compact: %w", err)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return fmt.Errorf("journal compact: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal compact: %w", err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return fmt.Errorf("journal compact: %w", err)
	}
	j.obsolete = 0
	j.f, err = os.OpenFile(j.path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal reopen: %w", err)
	}
	return nil
}

// Close compacts one final time (so a cleanly-drained journal holds only
// still-pending jobs, usually none) and releases the file. Idempotent.
func (j *journal) Close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	if err := j.compactLocked(); err != nil {
		j.onError("compact")
	}
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}
