package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"

	"neuroselect/internal/cnf"
)

// CanonicalHash returns a cache key that identifies the formula up to
// clause order, literal order within a clause, and DIMACS surface syntax
// (comments, whitespace, header slack). Two uploads that denote the same
// clause set — however they were serialized — map to the same key, so a
// repeated instance is served from the result cache without solving.
//
// Canonical form: the variable count, then every clause with its literals
// sorted ascending, the clause list itself sorted lexicographically.
// Reordering cannot change satisfiability, and a cached model satisfies
// every permutation of the clause set, so serving the first response
// verbatim is sound. The digest is SHA-256; keys are its hex form.
func CanonicalHash(f *cnf.Formula) string {
	clauses := make([][]cnf.Lit, len(f.Clauses))
	for i, c := range f.Clauses {
		cc := make([]cnf.Lit, len(c))
		copy(cc, c)
		sort.Slice(cc, func(a, b int) bool { return cc[a] < cc[b] })
		clauses[i] = cc
	}
	sort.Slice(clauses, func(a, b int) bool {
		x, y := clauses[a], clauses[b]
		for i := 0; i < len(x) && i < len(y); i++ {
			if x[i] != y[i] {
				return x[i] < y[i]
			}
		}
		return len(x) < len(y)
	})
	h := sha256.New()
	var buf [8]byte
	writeInt := func(n int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
	}
	writeInt(int64(f.NumVars))
	for _, c := range clauses {
		writeInt(int64(len(c)))
		for _, l := range c {
			writeInt(int64(l))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultCache is a fixed-capacity LRU over marshaled solve responses. Only
// decided results (SAT/UNSAT) are stored — an UNKNOWN under one timeout
// must not short-circuit a retry under a longer one. A hit returns the
// stored body verbatim, so repeated uploads of one instance get
// byte-identical answers.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	byKey map[string]*list.Element
}

// cacheEntry is one stored response body.
type cacheEntry struct {
	key    string
	body   []byte
	policy string // policy that produced the body, for the hit counter label
}

// newResultCache returns an LRU holding up to capacity entries; capacity
// <= 0 disables caching (Get always misses, Put drops).
func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the cached body for key and promotes it to most recent.
func (c *resultCache) Get(key string) (*cacheEntry, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// Put stores body under key, evicting the least-recently-used entry when
// over capacity. It returns the number of evictions (0 or 1).
func (c *resultCache) Put(key string, body []byte, policy string) int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// A fresh entry rather than a field update: the policy label must
		// follow the body, and a reader may still hold the old entry.
		el.Value = &cacheEntry{key: key, body: body, policy: policy}
		c.ll.MoveToFront(el)
		return 0
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, body: body, policy: policy})
	evicted := 0
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byKey, last.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
