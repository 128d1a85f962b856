package tensor

import "fmt"

// Sparse is a read-only sparse matrix in coordinate-per-row form, used for
// graph adjacency operators. It participates in products with dense
// matrices but carries no gradient itself.
type Sparse struct {
	Rows, Cols int
	// Entries[i] lists the nonzeros of row i.
	Entries [][]SparseEntry
}

// SparseEntry is one nonzero (column, weight) pair.
type SparseEntry struct {
	Col int
	W   float64
}

// NewSparse allocates an empty rows×cols sparse matrix.
func NewSparse(rows, cols int) *Sparse {
	return &Sparse{Rows: rows, Cols: cols, Entries: make([][]SparseEntry, rows)}
}

// Add appends a nonzero entry; duplicate (i, j) entries accumulate in
// products.
func (s *Sparse) Add(i, j int, w float64) {
	if i < 0 || i >= s.Rows || j < 0 || j >= s.Cols {
		panic(fmt.Sprintf("tensor: sparse index (%d,%d) out of %dx%d", i, j, s.Rows, s.Cols))
	}
	s.Entries[i] = append(s.Entries[i], SparseEntry{Col: j, W: w})
}

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int {
	n := 0
	for _, row := range s.Entries {
		n += len(row)
	}
	return n
}

// SpMM returns s × d for dense d.
func SpMM(s *Sparse, d *Matrix) *Matrix {
	out := New(s.Rows, d.Cols)
	SpMMInto(out, s, d)
	return out
}

// SpMMInto stores s × d in dst, which must be s.Rows×d.Cols and must not
// share storage with d. Each output row sums its row's entries in stored
// order.
func SpMMInto(dst *Matrix, s *Sparse, d *Matrix) {
	if s.Cols != d.Rows {
		panic(fmt.Sprintf("tensor: spmm inner mismatch %dx%d × %dx%d", s.Rows, s.Cols, d.Rows, d.Cols))
	}
	dstShape("spmm", dst, s.Rows, d.Cols)
	dst.Zero()
	for i, row := range s.Entries {
		orow := dst.Row(i)
		for _, e := range row {
			drow := d.Row(e.Col)
			for j, v := range drow {
				orow[j] += e.W * v
			}
		}
	}
}

// SpMMT returns sᵀ × d for dense d: the backward operator of SpMM.
func SpMMT(s *Sparse, d *Matrix) *Matrix {
	if s.Rows != d.Rows {
		panic(fmt.Sprintf("tensor: spmmT inner mismatch (%dx%d)ᵀ × %dx%d", s.Rows, s.Cols, d.Rows, d.Cols))
	}
	out := New(s.Cols, d.Cols)
	for i, row := range s.Entries {
		drow := d.Row(i)
		for _, e := range row {
			orow := out.Row(e.Col)
			for j, v := range drow {
				orow[j] += e.W * v
			}
		}
	}
	return out
}
