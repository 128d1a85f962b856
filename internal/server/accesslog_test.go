package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer serializes writes so the slog handler (invoked from handler
// goroutines) and the test's reads never race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSpace(b.buf.String())
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// One JSON access line per request, carrying the fields an incident is
// grepped by — and the cache verdict when the handler set one.
func TestAccessLogFields(t *testing.T) {
	var out syncBuffer
	_, ts := newTestServer(t, Config{
		Workers:   2,
		AccessLog: slog.New(slog.NewJSONHandler(&out, nil)),
	})

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "log-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Same instance twice: the second solve answers from the result cache.
	post(t, ts.URL+"/v1/solve", satCNF).Body.Close()
	post(t, ts.URL+"/v1/solve", satCNF).Body.Close()

	lines := out.Lines()
	if len(lines) != 3 {
		t.Fatalf("got %d access lines, want 3:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	type accessLine struct {
		Msg       string  `json:"msg"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		Bytes     int64   `json:"bytes"`
		Duration  float64 `json:"duration"`
		RequestID string  `json:"request_id"`
		Cache     string  `json:"cache"`
		Sampled   bool    `json:"sampled"`
	}
	parse := func(s string) accessLine {
		t.Helper()
		var l accessLine
		if err := json.Unmarshal([]byte(s), &l); err != nil {
			t.Fatalf("access line %q: %v", s, err)
		}
		return l
	}

	hl := parse(lines[0])
	if hl.Msg != "request" || hl.Method != "GET" || hl.Path != "/healthz" || hl.Status != 200 {
		t.Errorf("healthz line = %+v", hl)
	}
	if hl.RequestID != "log-req-1" {
		t.Errorf("healthz line request_id = %q, want log-req-1", hl.RequestID)
	}
	if hl.Bytes <= 0 || hl.Duration <= 0 {
		t.Errorf("healthz line missing bytes/duration: %+v", hl)
	}
	if hl.Sampled {
		t.Error("unflooded request flagged sampled")
	}

	s1, s2 := parse(lines[1]), parse(lines[2])
	if s1.Cache != "miss" || s2.Cache != "hit" {
		t.Errorf("solve cache verdicts = %q, %q; want miss, hit", s1.Cache, s2.Cache)
	}
	if s1.RequestID == "" || s1.RequestID == s2.RequestID {
		t.Errorf("solve lines lack distinct generated ids: %q vs %q", s1.RequestID, s2.RequestID)
	}
}

// The sampler admits the first limit requests of each second unflagged,
// then every every-th one flagged, and resets on the next second.
func TestAccessLoggerSampling(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newAccessLogger(slog.New(slog.NewTextHandler(&syncBuffer{}, nil)), 2, 3)
	l.now = func() time.Time { return now }

	type verdict struct{ ok, sampled bool }
	take := func(n int) []verdict {
		out := make([]verdict, n)
		for i := range out {
			out[i].ok, out[i].sampled = l.admit()
		}
		return out
	}

	got := take(8)
	// Over the limit, every verdict is in the sampled regime (the flag
	// only matters for admitted lines); the stride admits every 3rd.
	want := []verdict{
		{true, false}, {true, false}, // under the limit
		{true, true}, // n=3: first over-limit line, flagged
		{false, true}, {false, true},
		{true, true}, // n=6: stride of 3 admits again
		{false, true}, {false, true},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("admit #%d = %+v, want %+v", i+1, got[i], want[i])
		}
	}

	// A new wall-clock second opens a fresh window.
	now = now.Add(time.Second)
	if ok, sampled := l.admit(); !ok || sampled {
		t.Errorf("first admit of new second = (%v, %v), want (true, false)", ok, sampled)
	}

	// every=1 keeps logging every over-limit line, all flagged.
	l1 := newAccessLogger(slog.New(slog.NewTextHandler(&syncBuffer{}, nil)), 1, 1)
	l1.now = func() time.Time { return now }
	l1.admit()
	for i := 0; i < 5; i++ {
		if ok, sampled := l1.admit(); !ok || !sampled {
			t.Fatalf("every=1 over-limit admit #%d = (%v, %v), want (true, true)", i+1, ok, sampled)
		}
	}

	// Logging off: a nil logger constructs a nil accessLogger and the
	// middleware passes the mux through untouched.
	if newAccessLogger(nil, 0, 0) != nil {
		t.Error("nil slog.Logger should yield a nil accessLogger")
	}
}
