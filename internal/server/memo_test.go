package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/obs"
)

// gzipBytes compresses s with a default-level gzip writer.
func gzipBytes(t testing.TB, s string) []byte {
	t.Helper()
	var buf bytes.Buffer
	gw := gzip.NewWriter(&buf)
	if _, err := io.WriteString(gw, s); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postEncoded posts body under a Content-Encoding ("" sends none) and
// returns the response with its body read.
func postEncoded(t *testing.T, url, enc string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if enc != "" {
		req.Header.Set("Content-Encoding", enc)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// uploadKeyEvents reads the upload-key memo counter for one event.
func uploadKeyEvents(reg *obs.Registry, event string) int64 {
	return reg.Counter("neuroselect_server_upload_keys_total", "", obs.Labels{"event": event}).Value()
}

// TestRepeatUploadSkipsParser: a byte-identical repeat of an upload the
// server keyed before is answered from the result cache without reaching
// the DIMACS parser, on /v1/solve and on /v1/jobs, as identity and as
// gzip. With the parser armed to fail, only the memo can produce a 200:
// the answer must be the first response's bytes.
func TestRepeatUploadSkipsParser(t *testing.T) {
	for _, tc := range []struct {
		name, enc string
		body      []byte
	}{
		{"identity", "", []byte(satCNF)},
		{"gzip", "gzip", gzipBytes(t, satCNF)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			reg := obs.NewRegistry()
			_, ts := newTestServer(t, Config{Workers: 1, Registry: reg})
			resp, first := postEncoded(t, ts.URL+"/v1/solve", tc.enc, tc.body)
			if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
				t.Fatalf("first upload = %d X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), first)
			}

			faultpoint.Arm(faultpoint.DimacsParse, faultpoint.Fault{Err: errors.New("parser reached")})
			resp, again := postEncoded(t, ts.URL+"/v1/solve", tc.enc, tc.body)
			if resp.StatusCode != 200 {
				t.Fatalf("repeat /v1/solve = %d: %s", resp.StatusCode, again)
			}
			if got := resp.Header.Get("X-Cache"); got != "hit" {
				t.Errorf("repeat /v1/solve X-Cache = %q, want hit", got)
			}
			if !bytes.Equal(again, first) {
				t.Errorf("repeat /v1/solve body differs:\n%s\nwant\n%s", again, first)
			}

			resp, raw := postEncoded(t, ts.URL+"/v1/jobs", tc.enc, tc.body)
			if resp.StatusCode != 200 {
				t.Fatalf("repeat /v1/jobs = %d: %s", resp.StatusCode, raw)
			}
			var v jobView
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Fatal(err)
			}
			if !v.Cached || v.Status != JobDone || !bytes.Equal(v.Result, first) {
				t.Errorf("repeat /v1/jobs = cached %v status %q result %s; want a cached done job carrying %s",
					v.Cached, v.Status, v.Result, first)
			}

			if n := faultpoint.Hits(faultpoint.DimacsParse); n != 0 {
				t.Errorf("parser reached %d times by byte-identical repeats", n)
			}
			if hit, miss := uploadKeyEvents(reg, "hit"), uploadKeyEvents(reg, "miss"); hit != 2 || miss != 1 {
				t.Errorf("upload_keys_total hit=%d miss=%d, want 2 and 1", hit, miss)
			}
		})
	}
}

// TestUploadKeyMemoCases pins what the memo must not change: a permuted
// re-serialization is a new upload that still hits the cache through the
// full path; refused bodies stay refused and leave no entry; an evicted
// answer is solved again; a traced repeat bypasses the cache; a memo hit
// whose answer is absent parses again.
func TestUploadKeyMemoCases(t *testing.T) {
	t.Run("permuted re-serialization", func(t *testing.T) {
		t.Cleanup(faultpoint.Reset)
		reg := obs.NewRegistry()
		_, ts := newTestServer(t, Config{Workers: 1, Registry: reg})
		_, first := postEncoded(t, ts.URL+"/v1/solve", "", []byte(satCNF))
		faultpoint.Arm(faultpoint.DimacsParse, faultpoint.Fault{}) // a counting probe
		resp, raw := postEncoded(t, ts.URL+"/v1/solve", "", []byte("p cnf 3 3\n-3 -2 0\n3 -1 0\n2 1 0\n"))
		if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(raw, first) {
			t.Fatalf("permuted upload X-Cache %q body %s; want a hit on %s", resp.Header.Get("X-Cache"), raw, first)
		}
		if n := faultpoint.Hits(faultpoint.DimacsParse); n != 1 {
			t.Errorf("permuted upload parsed %d times, want 1 (the full path)", n)
		}
		if n := uploadKeyEvents(reg, "miss"); n != 2 {
			t.Errorf("upload_keys_total{miss} = %d, want 2", n)
		}
	})

	t.Run("refused bodies", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 4096})
		bomb := gzipBytes(t, "p cnf 2 2000\n"+strings.Repeat("1 2 0\n", 2000))
		for _, rc := range []struct {
			name, enc string
			body      []byte
			code      int
		}{
			{"malformed", "", []byte("p cnf 2 1\n1 x 0\n"), 400},
			{"empty formula", "", []byte("c nothing here\n"), 400},
			{"gzip bomb", "gzip", bomb, 413},
			{"unsupported encoding", "zstd", []byte(satCNF), 415},
		} {
			for _, path := range []string{"/v1/solve", "/v1/jobs"} {
				resp1, raw1 := postEncoded(t, ts.URL+path, rc.enc, rc.body)
				resp2, raw2 := postEncoded(t, ts.URL+path, rc.enc, rc.body)
				if resp1.StatusCode != rc.code || resp2.StatusCode != rc.code || !bytes.Equal(raw1, raw2) {
					t.Errorf("%s %s: %d %s then %d %s; want %d twice, identical", rc.name, path,
						resp1.StatusCode, raw1, resp2.StatusCode, raw2, rc.code)
				}
			}
		}
		if n := s.uploadKeys.Len(); n != 0 {
			t.Errorf("refused bodies left %d memo entries", n)
		}
	})

	t.Run("evicted answer is solved again", func(t *testing.T) {
		reg := obs.NewRegistry()
		_, ts := newTestServer(t, Config{Workers: 1, CacheSize: 1, Registry: reg})
		for i, rc := range []struct {
			body, status string
		}{{satCNF, "SAT"}, {unsatCNF, "UNSAT"}, {satCNF, "SAT"}} {
			resp := post(t, ts.URL+"/v1/solve", rc.body)
			if got := resp.Header.Get("X-Cache"); got != "miss" {
				t.Errorf("upload %d: X-Cache %q, want miss", i, got)
			}
			sr, _ := decodeSolve(t, resp)
			if sr.Status != rc.status {
				t.Fatalf("upload %d: %s, want %s", i, sr.Status, rc.status)
			}
			if sr.Status == "SAT" {
				assertModel(t, satCNF, sr.Model)
			}
		}
		if hit, miss := uploadKeyEvents(reg, "hit"), uploadKeyEvents(reg, "miss"); hit != 0 || miss != 3 {
			t.Errorf("upload_keys_total hit=%d miss=%d, want 0 and 3", hit, miss)
		}
	})

	t.Run("traced repeat bypasses", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 1})
		post(t, ts.URL+"/v1/solve", satCNF).Body.Close()
		resp := post(t, ts.URL+"/v1/solve?trace=1", satCNF)
		if got := resp.Header.Get("X-Cache"); got != "bypass" {
			t.Errorf("traced repeat X-Cache = %q, want bypass", got)
		}
		if sr, _ := decodeSolve(t, resp); sr.Status != "SAT" || len(sr.Trace) == 0 {
			t.Errorf("traced repeat = %s with %d trace events, want SAT with a trace", sr.Status, len(sr.Trace))
		}
	})

	t.Run("memo hit without an answer parses", func(t *testing.T) {
		t.Cleanup(faultpoint.Reset)
		reg := obs.NewRegistry()
		_, ts := newTestServer(t, Config{Workers: 1, Registry: reg})
		post(t, ts.URL+"/v1/solve", satCNF).Body.Close()
		faultpoint.Arm(faultpoint.DimacsParse, faultpoint.Fault{})
		resp := post(t, ts.URL+"/v1/solve?policy=frequency", satCNF)
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("new variant X-Cache = %q, want miss", got)
		}
		sr, _ := decodeSolve(t, resp)
		if sr.Status != "SAT" || sr.Policy.Name != "frequency" {
			t.Fatalf("new variant = %s under %s, want SAT under frequency", sr.Status, sr.Policy.Name)
		}
		if n := faultpoint.Hits(faultpoint.DimacsParse); n != 1 {
			t.Errorf("memo hit without an answer parsed %d times, want 1", n)
		}
		assertModel(t, satCNF, sr.Model)
		if n := uploadKeyEvents(reg, "hit"); n != 1 {
			t.Errorf("upload_keys_total{hit} = %d, want 1", n)
		}
	})
}

// TestOversizeUploadRefusedBeforeDecoding: the wire bytes are buffered
// before anything decodes them, so an oversize gzip upload is a 413 even
// when its header is corrupt; an unsupported encoding is still refused
// before the body is read.
func TestOversizeUploadRefusedBeforeDecoding(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 64})
	big := []byte(strings.Repeat("not gzip ", 20))
	for _, tc := range []struct {
		enc  string
		code int
	}{{"gzip", 413}, {"zstd", 415}} {
		resp, raw := postEncoded(t, ts.URL+"/v1/solve", tc.enc, big)
		if resp.StatusCode != tc.code {
			t.Errorf("oversize %s upload = %d %s, want %d", tc.enc, resp.StatusCode, raw, tc.code)
		}
	}
	// Within the cap, the corrupt header is still a 400.
	if resp, raw := postEncoded(t, ts.URL+"/v1/solve", "gzip", big[:32]); resp.StatusCode != 400 {
		t.Errorf("corrupt gzip upload = %d %s, want 400", resp.StatusCode, raw)
	}
}

// assertModel checks a returned model against the DIMACS it answers.
func assertModel(t *testing.T, dimacs string, model []int) {
	t.Helper()
	f := parse(t, dimacs)
	a := cnf.NewAssignment(f.NumVars)
	for _, l := range model {
		if l > 0 {
			a[l] = true
		}
	}
	if !a.Satisfies(f) {
		t.Fatalf("model %v does not satisfy %q", model, dimacs)
	}
}

// BenchmarkCacheHit times a /v1/solve cache hit through the handler on a
// formula of hot-cluster size (3,200 variables, 9,600 clauses), as
// identity and as gzip: at first sight (the upload-key memo misses, so
// the request decodes, parses and hashes) and on a byte-identical repeat
// (the memo supplies the key).
func BenchmarkCacheHit(b *testing.B) {
	text := random3SAT(3200, 9600, 1)
	s, err := New(Config{Workers: 1, MaxTimeout: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	serve := func(enc string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))
		if enc != "" {
			req.Header.Set("Content-Encoding", enc)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := serve("", []byte(text)); rec.Code != 200 {
		b.Fatalf("fill = %d: %s", rec.Code, rec.Body.Bytes())
	}
	for _, enc := range []string{"", "gzip"} {
		body := []byte(text)
		name := "identity"
		if enc == "gzip" {
			body, name = gzipBytes(b, text), "gzip"
		}
		digest := UploadDigest(enc, body)
		for _, repeat := range []bool{false, true} {
			sub := name + "/first-sight"
			if repeat {
				sub = name + "/repeat"
			}
			b.Run(sub, func(b *testing.B) {
				serve(enc, body) // fills the memo for the repeat case
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !repeat {
						s.uploadKeys.Delete(digest)
					}
					if rec := serve(enc, body); rec.Header().Get("X-Cache") != "hit" {
						b.Fatalf("not a cache hit: %d %s", rec.Code, rec.Body.Bytes())
					}
				}
			})
		}
	}
}
