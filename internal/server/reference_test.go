package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"neuroselect/internal/cnf"
)

// referenceCanonicalHash is the per-clause-copy CanonicalHash that the
// flat-buffer one replaced, kept as its differential reference: it copies
// and sorts every clause, sorts the clause list with sort.Slice, and feeds
// SHA-256 eight bytes at a time.
func referenceCanonicalHash(f *cnf.Formula) string {
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
