package server

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"

	"neuroselect/internal/cnf"
	"neuroselect/internal/lru"
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
// verbatim is sound. The digest is SHA-256 over little-endian int64s (the
// variable count, then each clause's length and literals); keys are its
// hex form.
//
// The formula is not modified: its literals are copied once into a flat
// array whose clause spans are sorted in place, and the clause order is
// sorted as (prefix key, offset, length) triples that hold no pointers.
func CanonicalHash(f *cnf.Formula) string {
	lits := make([]cnf.Lit, 0, f.NumLiterals())
	spans := make([]clauseSpan, len(f.Clauses))
	for i, c := range f.Clauses {
		off := len(lits)
		lits = append(lits, c...)
		sorted := lits[off:]
		slices.Sort(sorted)
		spans[i] = clauseSpan{key: prefixKey(sorted), off: uint32(off), n: uint32(len(c))}
	}
	slices.SortFunc(spans, func(a, b clauseSpan) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return slices.Compare(lits[a.off:a.off+a.n], lits[b.off:b.off+b.n])
	})

	h := sha256.New()
	buf := make([]byte, 0, 4096)
	put := func(n int64) {
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	}
	put(int64(f.NumVars))
	for _, s := range spans {
		put(int64(s.n))
		for _, l := range lits[s.off : s.off+s.n] {
			put(int64(l))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// clauseSpan locates one sorted clause in CanonicalHash's flat literal
// array, with the key it sorts by first. Offsets are 32-bit, which keeps a
// span at 16 bytes; a formula of 2^32 literals would need 16 GiB for the
// flat copy alone.
type clauseSpan struct {
	key    uint64
	off, n uint32
}

// prefixKey packs a sorted clause's first two literals into a key whose
// order agrees with the lexicographic clause order: each literal with its
// sign bit flipped (an order-preserving map from int32 to uint32), and 0
// for a missing literal. A missing literal must sort first; it ties with
// math.MinInt32, and the full comparison settles every tie.
func prefixKey(c []cnf.Lit) uint64 {
	var k uint64
	if len(c) > 0 {
		k = uint64(uint32(c[0])^1<<31) << 32
	}
	if len(c) > 1 {
		k |= uint64(uint32(c[1]) ^ 1<<31)
	}
	return k
}

// resultCache is a fixed-capacity LRU over marshaled solve responses. Only
// decided results (SAT/UNSAT) are stored — an UNKNOWN under one timeout
// must not short-circuit a retry under a longer one. A hit returns the
// stored body verbatim, so repeated uploads of one instance get
// byte-identical answers.
type resultCache struct {
	entries *lru.Cache[string, *cacheEntry]
}

// cacheEntry is one stored response body. A re-fill stores a fresh entry
// rather than updating fields: the policy label must follow the body, and
// a reader may still hold the old entry.
type cacheEntry struct {
	body   []byte
	policy string // policy that produced the body, for the hit counter label
}

// newResultCache returns an LRU holding up to capacity entries; capacity
// <= 0 disables caching (Get always misses, Put drops).
func newResultCache(capacity int) *resultCache {
	return &resultCache{entries: lru.New[string, *cacheEntry](capacity)}
}

// Get returns the cached body for key and promotes it to most recent.
func (c *resultCache) Get(key string) (*cacheEntry, bool) { return c.entries.Get(key) }

// Put stores body under key, evicting the least-recently-used entry when
// over capacity. It returns the number of evictions (0 or 1).
func (c *resultCache) Put(key string, body []byte, policy string) int {
	return c.entries.Put(key, &cacheEntry{body: body, policy: policy})
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int { return c.entries.Len() }
