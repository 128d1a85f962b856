package server

import (
	"strings"
	"testing"

	"neuroselect/internal/cnf"
)

func parse(t *testing.T, s string) *cnf.Formula {
	t.Helper()
	f, err := cnf.ParseDIMACS(strings.NewReader(s))
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return f
}

func TestCanonicalHashInvariantToOrderAndSyntax(t *testing.T) {
	base := parse(t, "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n")
	variants := map[string]string{
		"clause order":      "p cnf 3 3\n-2 -3 0\n1 2 0\n-1 3 0\n",
		"literal order":     "p cnf 3 3\n2 1 0\n3 -1 0\n-3 -2 0\n",
		"comments + layout": "c hello\np cnf 3 3\n1 2 0 -1 3 0\nc mid\n-2 -3 0\n",
		"both reorderings":  "p cnf 3 3\n-3 -2 0\n3 -1 0\n2 1 0\n",
	}
	want := CanonicalHash(base)
	for name, text := range variants {
		if got := CanonicalHash(parse(t, text)); got != want {
			t.Errorf("%s: hash %s != base %s — canonicalization leaked surface syntax", name, got, want)
		}
	}
}

func TestCanonicalHashDistinguishesFormulas(t *testing.T) {
	a := CanonicalHash(parse(t, "p cnf 2 2\n1 2 0\n-1 0\n"))
	b := CanonicalHash(parse(t, "p cnf 2 2\n1 2 0\n-2 0\n"))
	c := CanonicalHash(parse(t, "p cnf 3 2\n1 2 0\n-1 0\n")) // extra unused var
	if a == b {
		t.Error("different clause sets hashed equal")
	}
	if a == c {
		t.Error("different variable counts hashed equal")
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	if ev := c.Put("a", []byte("A"), "default"); ev != 0 {
		t.Fatalf("unexpected eviction on first put: %d", ev)
	}
	c.Put("b", []byte("B"), "default")
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if ev := c.Put("c", []byte("C"), "default"); ev != 1 {
		t.Fatalf("want 1 eviction, got %d", ev)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as least-recently-used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

// TestResultCachePutReplacesPolicy: re-filling a key (a re-solve after a
// cache-get fault, possibly under another policy if one inference failed)
// must replace the policy label along with the body, or cached hits are
// counted under the wrong solves_total{policy}.
func TestResultCachePutReplacesPolicy(t *testing.T) {
	c := newResultCache(2)
	c.Put("k", []byte("A"), "frequency")
	c.Put("k", []byte("B"), "default")
	e, ok := c.Get("k")
	if !ok || string(e.body) != "B" || e.policy != "default" {
		t.Fatalf("entry after re-put = %+v (ok=%v), want body B under policy default", e, ok)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.Put("a", []byte("A"), "default")
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache returned a hit")
	}
}
