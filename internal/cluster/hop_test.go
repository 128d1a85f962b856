package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"neuroselect/internal/cnf"
	"neuroselect/internal/gen"
	"neuroselect/internal/server"
)

// newHop starts one replica and a coordinator in front of it, every tier
// at the default 64 MiB body cap.
func newHop(tb testing.TB) (replica, front *httptest.Server) {
	tb.Helper()
	svc, err := server.New(server.Config{Workers: 1, BackendName: "r1", MaxTimeout: 10 * time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	replica = httptest.NewServer(svc.Handler())
	coord, err := New(Config{Replicas: []string{replica.URL}, ProbeInterval: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	front = httptest.NewServer(coord.Handler())
	tb.Cleanup(func() {
		front.Close()
		coord.Close()
		replica.Close()
		svc.Close()
	})
	return replica, front
}

// TestAnswersDeclareLength: a replica's /v1/solve answer, miss and hit,
// and the hit relayed by a coordinator each carry a Content-Length equal
// to the body's length, and none is chunked. The answer's model is long
// enough that an undeclared length would be chunked.
func TestAnswersDeclareLength(t *testing.T) {
	replica, front := newHop(t)
	const vars = 1000
	var text strings.Builder
	fmt.Fprintf(&text, "p cnf %d %d\n", vars, vars)
	for v := 1; v <= vars; v++ {
		fmt.Fprintf(&text, "%d 0\n", v)
	}
	for _, step := range []struct{ name, url, cache string }{
		{"replica miss", replica.URL, "miss"},
		{"replica hit", replica.URL, "hit"},
		{"relayed hit", front.URL, "hit"},
	} {
		resp, body := postEncoded(t, step.url+"/v1/solve", "", []byte(text.String()))
		if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != step.cache {
			t.Fatalf("%s: %d X-Cache %q, want 200 %s", step.name, resp.StatusCode, resp.Header.Get("X-Cache"), step.cache)
		}
		if len(body) < 4096 {
			t.Fatalf("%s: a %d-byte answer would not be chunked anyway", step.name, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %q for a %d-byte answer",
				step.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestShortBodyUnderLargeDeclaredLength: a request that declares the
// whole 64 MiB body cap as its Content-Length, sends 10 bytes and
// half-closes is a 400 (a truncated body) from a replica and from a
// coordinator: the declaration reserves no more than the first
// reservation, refuses nothing on its own, and waits for no more bytes.
func TestShortBodyUnderLargeDeclaredLength(t *testing.T) {
	replica, front := newHop(t)
	for _, tier := range []struct{ name, url string }{{"replica", replica.URL}, {"coordinator", front.URL}} {
		u, err := url.Parse(tier.url)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.DialTimeout("tcp", u.Host, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		fmt.Fprintf(conn, "POST /v1/solve HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n%s",
			u.Host, 64<<20, "p cnf 1 1\n")
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: no answer to a short body: %v", tier.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tier.name, resp.StatusCode, raw)
		}
	}
}

// BenchmarkHashRoutedHit times one /v1/solve cache hit through the
// coordinator hop: a client posts a gzip body of hot-cluster size (3,200
// variables, 9,600 clauses) to a coordinator in front of one replica.
// Every request after the fill is a byte-identical repeat, keyed from
// both tiers' memos and answered from the replica's result cache. All
// three parties share this process, so B/op counts the client, the
// coordinator and the replica.
func BenchmarkHashRoutedHit(b *testing.B) {
	_, front := newHop(b)
	var text bytes.Buffer
	if err := cnf.WriteDIMACS(&text, gen.RandomKSAT(3200, 9600, 3, 1).F); err != nil {
		b.Fatal(err)
	}
	body := gzipBytes(text.Bytes())
	post := func() string {
		req, err := http.NewRequest("POST", front.URL+"/v1/solve", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Encoding", "gzip")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Cache")
	}
	if got := post(); got != "miss" {
		b.Fatalf("fill X-Cache = %q, want miss", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := post(); got != "hit" {
			b.Fatalf("X-Cache = %q, want hit", got)
		}
	}
}
