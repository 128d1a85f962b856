package cluster

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/faultpoint"
	"neuroselect/internal/gen"
	"neuroselect/internal/obs"
	"neuroselect/internal/server"
)

// gzipBytes compresses b with a default-level gzip writer; writes to a
// bytes.Buffer cannot fail.
func gzipBytes(b []byte) []byte {
	var buf bytes.Buffer
	gw := gzip.NewWriter(&buf)
	gw.Write(b)
	gw.Close()
	return buf.Bytes()
}

// newCappedCluster is newTestCluster's topology with one body cap for
// every tier, so a gzip bomb stays small.
func newCappedCluster(t *testing.T, maxBody int64) (*Coordinator, []*server.Server, *httptest.Server) {
	t.Helper()
	var svcs []*server.Server
	var urls []string
	for i := 0; i < 2; i++ {
		svc, err := server.New(server.Config{Workers: 1, BackendName: fmt.Sprintf("r%d", i+1),
			MaxTimeout: 10 * time.Second, MaxBodyBytes: maxBody})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(func() {
			ts.Close()
			svc.Close()
		})
		svcs = append(svcs, svc)
		urls = append(urls, ts.URL)
	}
	coord, err := New(Config{Replicas: urls, ProbeInterval: time.Hour, MaxBodyBytes: maxBody})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		front.Close()
		coord.Close()
	})
	return coord, svcs, front
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

// memoEvents reads one tier's memo counter for one event.
func memoEvents(reg *obs.Registry, name, event string) int64 {
	return reg.Counter(name, "", obs.Labels{"event": event}).Value()
}

// TestRepeatUploadSkipsParserThroughCoordinator: a byte-identical repeat
// through the coordinator is routed by the coordinator's memo and keyed
// by the owning replica's, so neither tier reaches the DIMACS parser. With
// the parser armed to fail, the repeat must still land on the same
// replica and come back from its cache, byte for byte, on /v1/solve and
// on /v1/jobs.
func TestRepeatUploadSkipsParserThroughCoordinator(t *testing.T) {
	for _, tc := range []struct {
		name, enc string
		body      []byte
	}{
		{"identity", "", []byte(testCNFSat)},
		{"gzip", "gzip", gzipBytes([]byte(testCNFSat))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			coord, svcs, front := newCappedCluster(t, 1<<20)
			resp, first := postEncoded(t, front.URL+"/v1/solve", tc.enc, tc.body)
			owner := resp.Header.Get("X-Backend")
			if resp.StatusCode != 200 || owner == "" {
				t.Fatalf("first upload = %d from %q: %s", resp.StatusCode, owner, first)
			}

			faultpoint.Arm(faultpoint.DimacsParse, faultpoint.Fault{Err: errors.New("parser reached")})
			resp, again := postEncoded(t, front.URL+"/v1/solve", tc.enc, tc.body)
			if resp.StatusCode != 200 {
				t.Fatalf("repeat /v1/solve = %d: %s", resp.StatusCode, again)
			}
			if got := resp.Header.Get("X-Backend"); got != owner {
				t.Errorf("repeat /v1/solve routed to %q, first went to %q", got, owner)
			}
			if got := resp.Header.Get("X-Cache"); got != "hit" {
				t.Errorf("repeat /v1/solve X-Cache = %q, want hit", got)
			}
			if !bytes.Equal(again, first) {
				t.Errorf("repeat /v1/solve body differs:\n%s\nwant\n%s", again, first)
			}

			resp, raw := postEncoded(t, front.URL+"/v1/jobs", tc.enc, tc.body)
			if resp.StatusCode != 200 {
				t.Fatalf("repeat /v1/jobs = %d: %s", resp.StatusCode, raw)
			}
			if got := resp.Header.Get("X-Backend"); got != owner {
				t.Errorf("repeat /v1/jobs routed to %q, first went to %q", got, owner)
			}
			var v struct {
				Cached bool            `json:"cached"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Fatal(err)
			}
			if !v.Cached || !bytes.Equal(v.Result, first) {
				t.Errorf("repeat /v1/jobs = cached %v result %s; want a cached job carrying %s", v.Cached, v.Result, first)
			}

			if n := faultpoint.Hits(faultpoint.DimacsParse); n != 0 {
				t.Errorf("parser reached %d times by byte-identical repeats", n)
			}
			if hit := memoEvents(coord.Registry(), "neuroselect_cluster_route_keys_total", "hit"); hit != 2 {
				t.Errorf("coordinator route_keys_total{hit} = %d, want 2", hit)
			}
			var replicaHits int64
			for _, svc := range svcs {
				replicaHits += memoEvents(svc.Registry(), "neuroselect_server_upload_keys_total", "hit")
			}
			if replicaHits != 2 {
				t.Errorf("replica upload_keys_total{hit} = %d, want 2", replicaHits)
			}
		})
	}
}

// TestRouteKeyMemoCases: a permuted re-serialization is a new upload,
// keyed through the full path onto the same replica and its cached
// answer; bodies the replicas refuse are refused identically twice, and
// those the coordinator cannot key leave no memo entry.
func TestRouteKeyMemoCases(t *testing.T) {
	const max = 4096
	coord, _, front := newCappedCluster(t, max)

	resp, first := postEncoded(t, front.URL+"/v1/solve", "", []byte(testCNFSat))
	owner := resp.Header.Get("X-Backend")
	resp, raw := postEncoded(t, front.URL+"/v1/solve", "", []byte("p cnf 3 2\n3 -1 2 0\n-3 1 0\n"))
	if resp.Header.Get("X-Backend") != owner || resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(raw, first) {
		t.Errorf("permuted upload from %q X-Cache %q body %s; want a hit from %q on %s",
			resp.Header.Get("X-Backend"), resp.Header.Get("X-Cache"), raw, owner, first)
	}
	if hit, miss := memoEvents(coord.Registry(), "neuroselect_cluster_route_keys_total", "hit"),
		memoEvents(coord.Registry(), "neuroselect_cluster_route_keys_total", "miss"); hit != 0 || miss != 2 {
		t.Errorf("route_keys_total hit=%d miss=%d, want 0 and 2", hit, miss)
	}

	keyed := coord.routeKeys.Len()
	bomb := gzipBytes([]byte("p cnf 2 2000\n" + strings.Repeat("1 2 0\n", 2000)))
	for _, rc := range []struct {
		name, enc string
		body      []byte
		code      int
		memoized  bool
	}{
		{"malformed", "", []byte("p cnf 2 1\n1 x 0\n"), 400, false},
		{"gzip bomb", "gzip", bomb, 413, false},
		{"unsupported encoding", "zstd", []byte(testCNFSat), 415, false},
		// The coordinator keys an empty formula, as it keys any body that
		// parses: session creates accept one.
		{"empty formula", "", []byte("c nothing here\n"), 400, true},
	} {
		resp1, raw1 := postEncoded(t, front.URL+"/v1/solve", rc.enc, rc.body)
		resp2, raw2 := postEncoded(t, front.URL+"/v1/solve", rc.enc, rc.body)
		if resp1.StatusCode != rc.code || resp2.StatusCode != rc.code || !bytes.Equal(raw1, raw2) ||
			resp1.Header.Get("X-Backend") != resp2.Header.Get("X-Backend") {
			t.Errorf("%s: %d %s from %q then %d %s from %q; want %d twice from one replica", rc.name,
				resp1.StatusCode, raw1, resp1.Header.Get("X-Backend"),
				resp2.StatusCode, raw2, resp2.Header.Get("X-Backend"), rc.code)
		}
		_, ok := coord.routeKeys.Get(server.UploadDigest(rc.enc, rc.body))
		if ok != rc.memoized {
			t.Errorf("%s: memo entry present = %v, want %v", rc.name, ok, rc.memoized)
		}
		if ok {
			keyed++
		}
	}
	if n := coord.routeKeys.Len(); n != keyed {
		t.Errorf("route-key memo holds %d entries, want %d", n, keyed)
	}
}

// FuzzRouteKeyAgreesWithReplica runs arbitrary bytes through routeKey
// under every encoding class — none, identity, gzip, GZIP and an
// unsupported one — with the gzip cases fed both the bytes as they are
// (almost always a corrupt stream) and their gzip compression. routeKey
// must be deterministic; it must equal CanonicalHash of the formula a
// replica decodes (the streaming server.DecodeBody path) and parses
// whenever the replica would accept the body, and the raw-bytes digest
// otherwise; and the memoized key must equal the fresh one on first and
// second sight, with no memo entry for a raw key.
func FuzzRouteKeyAgreesWithReplica(f *testing.F) {
	// A small cap keeps the bomb seed, and so the inputs the engine
	// minimizes, small.
	const max = 512
	for _, s := range []string{
		testCNFSat,
		testCNFUnsat,
		"p cnf 3 2\n3 -1 2 0\n-3 1 0\n",
		"c comment only\n",
		"p cnf 2 1\n1 x 0\n",
		"p cnf 2 1000\n" + strings.Repeat("1 2 0\n", max/4),
	} {
		f.Add([]byte(s))
	}
	coord, err := New(Config{Replicas: []string{"http://127.0.0.1:1"}, ProbeInterval: time.Hour, MaxBodyBytes: max})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(coord.Close)
	// replicaKey is what a replica accepts and hashes: the streaming
	// decode, then the parse.
	replicaKey := func(body []byte, enc string) (string, bool) {
		src, err := server.DecodeBody(bytes.NewReader(body), enc, max)
		if err != nil {
			return "", false
		}
		text, err := io.ReadAll(src)
		if err != nil {
			return "", false
		}
		form, err := cnf.ParseDIMACS(bytes.NewReader(text))
		if err != nil {
			return "", false
		}
		return server.CanonicalHash(form), true
	}
	// One compressor for the whole run: fuzz calls are sequential within a
	// worker, and a fresh gzip.Writer costs more than the checks.
	var gzBuf bytes.Buffer
	gw := gzip.NewWriter(&gzBuf)
	f.Fuzz(func(t *testing.T, body []byte) {
		gzBuf.Reset()
		gw.Reset(&gzBuf)
		gw.Write(body)
		gw.Close()
		gz := gzBuf.Bytes()
		for _, tc := range []struct {
			enc  string
			body []byte
		}{{"", body}, {"identity", body}, {"gzip", body}, {"gzip", gz}, {"GZIP", gz}, {"zstd", body}} {
			key := routeKey(tc.body, tc.enc, max)
			if again := routeKey(tc.body, tc.enc, max); again != key {
				t.Fatalf("%q: routeKey not deterministic: %q then %q", tc.enc, key, again)
			}
			want, accepted := replicaKey(tc.body, tc.enc)
			if !accepted {
				sum := sha256.Sum256(tc.body)
				want = "raw:" + hex.EncodeToString(sum[:])
			}
			if key != want {
				t.Fatalf("%q (replica accepts: %v): routeKey %q, want %q", tc.enc, accepted, key, want)
			}
			for sight := 1; sight <= 2; sight++ {
				if got := coord.uploadKey(tc.body, tc.enc); got != key {
					t.Fatalf("%q: memoized key %q at sight %d, fresh %q", tc.enc, got, sight, key)
				}
			}
			if _, ok := coord.routeKeys.Get(server.UploadDigest(tc.enc, tc.body)); ok != accepted {
				t.Fatalf("%q: memo entry present = %v for an upload the replica accepts = %v", tc.enc, ok, accepted)
			}
		}
	})
}

// BenchmarkRouteKey keys an upload of hot-cluster size (3,200 variables,
// 9,600 clauses), as identity and as gzip: at first sight (the memo
// misses, so the coordinator decodes, parses and hashes) and on a
// byte-identical repeat (the memo supplies the key).
func BenchmarkRouteKey(b *testing.B) {
	var text bytes.Buffer
	if err := cnf.WriteDIMACS(&text, gen.RandomKSAT(3200, 9600, 3, 1).F); err != nil {
		b.Fatal(err)
	}
	coord, err := New(Config{Replicas: []string{"http://127.0.0.1:1"}, ProbeInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	for _, enc := range []string{"identity", "gzip"} {
		body := text.Bytes()
		if enc == "gzip" {
			body = gzipBytes(body)
		}
		digest := server.UploadDigest(enc, body)
		for _, sight := range []string{"first-sight", "repeat"} {
			b.Run(enc+"/"+sight, func(b *testing.B) {
				coord.uploadKey(body, enc) // fills the memo for the repeat case
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if sight == "first-sight" {
						coord.routeKeys.Delete(digest)
					}
					keySink = coord.uploadKey(body, enc)
				}
			})
		}
	}
}

// keySink keeps the benchmarked keys live.
var keySink string
