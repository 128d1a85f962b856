package server

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
)

// TestSolvePortfolioParam drives POST /v1/solve?portfolio=: the response
// must decide the instance and carry the append-only portfolio block with
// coherent worker ledgers.
func TestSolvePortfolioParam(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := post(t, ts.URL+"/v1/solve?portfolio=2", phpDIMACS(t, 6))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Status != "UNSAT" {
		t.Fatalf("php-6 must be UNSAT, got %s", sr.Status)
	}
	if sr.Portfolio == nil {
		t.Fatal("portfolio solve response is missing the portfolio block")
	}
	if sr.Portfolio.Workers != 2 || len(sr.Portfolio.Exchange) != 2 {
		t.Fatalf("want 2 workers with 2 exchange ledgers, got %d/%d",
			sr.Portfolio.Workers, len(sr.Portfolio.Exchange))
	}
	if sr.Portfolio.Winner == "" || sr.Portfolio.WinnerIndex < 0 {
		t.Fatalf("decided portfolio solve must name a winner, got %q/%d",
			sr.Portfolio.Winner, sr.Portfolio.WinnerIndex)
	}
	if sr.Policy.Fallback != "portfolio" {
		t.Fatalf("policy fallback = %q, want portfolio", sr.Policy.Fallback)
	}
}

// TestSolvePortfolioDeterministic checks ?deterministic=1: two identical
// uploads (cache disabled) report the same answer, stats, rounds, and
// propagation-frequency hash.
func TestSolvePortfolioDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	get := func() solveResponse {
		resp := post(t, ts.URL+"/v1/solve?portfolio=2&deterministic=1", phpDIMACS(t, 6))
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var sr solveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	a, b := get(), get()
	if a.Status != "UNSAT" || b.Status != a.Status {
		t.Fatalf("statuses %s/%s, want UNSAT twice", a.Status, b.Status)
	}
	if a.Stats != b.Stats {
		t.Fatalf("deterministic stats diverged:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Portfolio.PropFreqHash != b.Portfolio.PropFreqHash ||
		a.Portfolio.Rounds != b.Portfolio.Rounds ||
		a.Portfolio.PseudoTimeUS != b.Portfolio.PseudoTimeUS {
		t.Fatalf("deterministic portfolio block diverged:\n%+v\n%+v", a.Portfolio, b.Portfolio)
	}
	if !a.Portfolio.Deterministic {
		t.Fatal("response must record deterministic mode")
	}
}

// TestPortfolioParamValidation pins the 400 paths and the cache-key
// variant separation.
func TestPortfolioParamValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, q := range []string{
		"portfolio=0",
		"portfolio=banana",
		"portfolio=99",
		"portfolio=2&policy=frequency",
		"deterministic=1",
		"portfolio=2&deterministic=maybe",
	} {
		resp := post(t, ts.URL+"/v1/solve?"+q, satCNF)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?%s: status %d, want 400", q, resp.StatusCode)
		}
	}

	// A single-solver result must not be served to a portfolio request:
	// the variants hash to different cache keys.
	solve := func(q string) (string, *http.Response) {
		resp := post(t, ts.URL+"/v1/solve"+q, unsatCNF)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", q, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp
	}
	_, first := solve("")
	if h := first.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("first solve X-Cache = %q, want miss", h)
	}
	_, second := solve("?portfolio=2")
	if h := second.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("portfolio solve after single solve X-Cache = %q, want miss (distinct variant)", h)
	}
	_, third := solve("?portfolio=2")
	if h := third.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("repeat portfolio solve X-Cache = %q, want hit", h)
	}

	// A deterministic answer is the fixed ensemble's for any worker count,
	// so it is cached once; a free-running answer is cached per count.
	for _, c := range []struct{ q, want string }{
		{"?portfolio=2&deterministic=1", "miss"},
		{"?portfolio=3&deterministic=1", "hit"},
		{"?portfolio=3", "miss"},
	} {
		if _, resp := solve(c.q); resp.Header.Get("X-Cache") != c.want {
			t.Fatalf("%s: X-Cache = %q, want %s", c.q, resp.Header.Get("X-Cache"), c.want)
		}
	}
}
