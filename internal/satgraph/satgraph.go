// Package satgraph converts CNF formulas into the graph representations
// consumed by the classifiers: the NeuroComb-style weighted bipartite
// variable–clause graph used by NeuroSelect (§4.2 of the paper) and the
// literal–clause graph used by the NeuroSAT baseline.
package satgraph

import (
	"neuroselect/internal/cnf"
	"neuroselect/internal/tensor"
)

// VCG is the undirected bipartite variable–clause graph G = (V1 ∪ V2, E, W)
// of §4.2: V1 holds one node per variable, V2 one node per clause, and the
// edge weight between variable x_i and clause c_j is +1 when x_i ∈ c_j and
// −1 when ¬x_i ∈ c_j. Node indices place variables first (0..NumVars-1)
// followed by clauses.
type VCG struct {
	NumVars    int
	NumClauses int
	// Adj is the mean-normalized message operator over the full node set:
	// Adj[v][u] = w_uv / |N(v)| for each neighbor u of v (Eq. 6). Each row
	// lists its edges in formula order (clause by clause, literal by
	// literal), and every row is carved out of one backing array.
	Adj *tensor.Sparse
	// Degree[v] is |N(v)| for each node.
	Degree []int

	backing []tensor.SparseEntry // the array Adj's rows are carved from
}

// NumNodes returns |V1| + |V2|, the quantity the paper caps at 400,000.
func (g *VCG) NumNodes() int { return g.NumVars + g.NumClauses }

// BuildVCG constructs the bipartite graph of a formula (see Build).
func BuildVCG(f *cnf.Formula) *VCG {
	g := new(VCG)
	g.Build(f)
	return g
}

// Build makes g the bipartite graph of f in two passes: the first counts
// every node's degree, the second fills the rows of Adj, which are sized
// by those degrees. It reuses the storage of g's previous graph wherever
// it is large enough, so rebuilding for a formula no larger than an
// earlier one allocates nothing. A variable occurring in both polarities
// in one clause contributes two edges whose weights cancel in
// aggregation, mirroring the tautological structure.
func (g *VCG) Build(f *cnf.Formula) {
	n, m := f.NumVars, len(f.Clauses)
	g.NumVars, g.NumClauses = n, m
	g.Degree = resize(g.Degree, n+m)
	clear(g.Degree)
	for j, cl := range f.Clauses {
		for _, l := range cl {
			g.Degree[l.Var()-1]++
		}
		g.Degree[n+j] = len(cl)
	}
	if g.Adj == nil {
		g.Adj = new(tensor.Sparse)
	}
	g.Adj.Rows, g.Adj.Cols = n+m, n+m
	g.Adj.Entries = resize(g.Adj.Entries, n+m)
	g.backing = resize(g.backing, 2*f.NumLiterals())
	off := 0
	for i, d := range g.Degree {
		g.Adj.Entries[i] = g.backing[off : off : off+d]
		off += d
	}
	for j, cl := range f.Clauses {
		c := n + j
		for _, l := range cl {
			v := l.Var() - 1
			w := 1.0
			if !l.Positive() {
				w = -1.0
			}
			g.Adj.Entries[v] = append(g.Adj.Entries[v], tensor.SparseEntry{Col: c, W: w / float64(g.Degree[v])})
			g.Adj.Entries[c] = append(g.Adj.Entries[c], tensor.SparseEntry{Col: v, W: w / float64(g.Degree[c])})
		}
	}
}

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// InitialFeatures returns the §4.2 initial node embedding: dimension d with
// every variable-node feature set to 1 and every clause-node feature set
// to 0.
func (g *VCG) InitialFeatures(d int) *tensor.Matrix {
	x := tensor.New(g.NumNodes(), d)
	for v := 0; v < g.NumVars; v++ {
		row := x.Row(v)
		for j := range row {
			row[j] = 1
		}
	}
	return x
}

// LCG is the literal–clause graph of NeuroSAT: one node per literal (2n,
// positive literal of variable v at index 2(v−1), negative at 2(v−1)+1) and
// one node per clause. Message operators use sum aggregation as in the
// original NeuroSAT — with identical initial embeddings, sums expose clause
// sizes and literal degrees, whereas mean-normalized (row-stochastic)
// operators would make the forward pass provably input-independent.
type LCG struct {
	NumVars    int
	NumClauses int
	// LitToClause aggregates (sums) literal features into clauses (m × 2n).
	LitToClause *tensor.Sparse
	// ClauseToLit aggregates (sums) clause features into literals (2n × m).
	ClauseToLit *tensor.Sparse
}

// LitIndex returns the LCG node index of a DIMACS literal.
func LitIndex(l cnf.Lit) int {
	i := 2 * (l.Var() - 1)
	if !l.Positive() {
		i++
	}
	return i
}

// FlipIndex returns the node index of the complementary literal for node i.
func FlipIndex(i int) int { return i ^ 1 }

// BuildLCG constructs the literal–clause graph of a formula.
func BuildLCG(f *cnf.Formula) *LCG {
	n, m := f.NumVars, len(f.Clauses)
	g := &LCG{NumVars: n, NumClauses: m}
	g.LitToClause = tensor.NewSparse(m, 2*n)
	g.ClauseToLit = tensor.NewSparse(2*n, m)
	for j, cl := range f.Clauses {
		for _, l := range cl {
			li := LitIndex(l)
			g.LitToClause.Add(j, li, 1)
			g.ClauseToLit.Add(li, j, 1)
		}
	}
	return g
}
