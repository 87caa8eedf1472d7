// Package sparse provides compressed sparse row matrices and an iterative
// conjugate gradient solver. The MEA forward model assembles its
// wire-conductance Laplacian here, and the recovery solver's sparse
// Gauss-Newton step keeps its Jacobian here and solves the damped normal
// equations by Jacobi-preconditioned CG (CGOp). The IC(0) factorization and
// NormalInto stay for benchmarks that time them; no solver path runs them.
package sparse

import (
	"fmt"
	"sort"

	"parma/internal/mat"
)

// Coord is one (row, col, value) triplet of a matrix under construction.
type Coord struct {
	Row, Col int
	Val      float64
}

// Builder accumulates coordinate-format entries; duplicates are summed when
// the builder is compiled to CSR, which makes assembling Laplacians by
// scattering conductance stamps natural.
type Builder struct {
	rows, cols int
	entries    []Coord
}

// NewBuilder returns a builder for a rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: invalid dimensions %dx%d", rows, cols))
	}
	return &Builder{rows: rows, cols: cols}
}

// Add accumulates v at (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for %dx%d matrix", i, j, b.rows, b.cols))
	}
	b.entries = append(b.entries, Coord{i, j, v})
}

// Build compiles the accumulated entries to CSR, summing duplicates and
// dropping exact zeros that result from cancellation. Duplicate (i, j)
// entries are summed in insertion order: the sort is stable, so the
// floating-point sum — which is order-dependent — is a pure function of the
// Add sequence, not of the sorting algorithm's tie-breaking. (An unstable
// sort here made Build's values depend on how sort.Slice happened to
// shuffle equal keys; TestBuilderCoalescesDuplicatesInOrder pins the fix.)
func (b *Builder) Build() *CSR {
	sort.SliceStable(b.entries, func(x, y int) bool {
		if b.entries[x].Row != b.entries[y].Row {
			return b.entries[x].Row < b.entries[y].Row
		}
		return b.entries[x].Col < b.entries[y].Col
	})
	m := &CSR{rows: b.rows, cols: b.cols, rowPtr: make([]int, b.rows+1)}
	for k := 0; k < len(b.entries); {
		e := b.entries[k]
		sum := 0.0
		for k < len(b.entries) && b.entries[k].Row == e.Row && b.entries[k].Col == e.Col {
			sum += b.entries[k].Val
			k++
		}
		if sum != 0 {
			m.colIdx = append(m.colIdx, e.Col)
			m.vals = append(m.vals, sum)
			m.rowPtr[e.Row+1]++
		}
	}
	for i := 0; i < b.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// CSR is a compressed sparse row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the entry at (i, j); absent entries are 0.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := sort.SearchInts(m.colIdx[lo:hi], j)
	if idx < hi-lo && m.colIdx[lo+idx] == j {
		return m.vals[lo+idx]
	}
	return 0
}

// MulVec computes y = M·x into a new vector.
func (m *CSR) MulVec(x mat.Vector) mat.Vector {
	y := mat.NewVector(m.rows)
	m.MulVecTo(y, x)
	return y
}

// spmvGrainFlops targets enough arithmetic per claimed chunk that the
// chunk handout (one atomic add) disappears in the noise — the same budget
// the dense kernels use (mat/kernels.go).
const spmvGrainFlops = 16384

// spmvGrain sizes a row-chunk so each carries about spmvGrainFlops flops
// for a matrix with the given average row population.
func spmvGrain(rows, nnz int) int {
	if rows <= 0 || nnz <= 0 {
		return 1
	}
	g := spmvGrainFlops * rows / (2 * nnz)
	if g < 1 {
		return 1
	}
	return g
}

// MulVecTo computes y = M·x into the provided y, avoiding allocation. Rows
// fan out across the shared kernel pool (mat.ParallelFor) when the matrix
// is big enough to amortize the handout; each output row is accumulated in
// index order by exactly one worker, so the result is bit-identical at any
// parallelism. Small matrices (one chunk) degrade to a plain serial loop.
func (m *CSR) MulVecTo(y, x mat.Vector) {
	if len(x) != m.cols || len(y) != m.rows {
		panic(fmt.Sprintf("sparse: MulVec shapes y[%d] = M(%dx%d)·x[%d]", len(y), m.rows, m.cols, len(x)))
	}
	grain := spmvGrain(m.rows, len(m.vals))
	if m.rows <= grain {
		// One chunk: skip the pool (and the escaping closure) entirely so
		// allocation-free CG loops stay allocation-free.
		m.mulRows(y, x, 0, m.rows)
		return
	}
	mat.ParallelFor(m.rows, grain, func(lo, hi int) { m.mulRows(y, x, lo, hi) })
}

// mulRows is the serial SpMV kernel over a row range.
func (m *CSR) mulRows(y, x mat.Vector, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
}

// MulTVecTo computes y = Mᵀ·x into the provided y without forming the
// transpose: one serial pass over m's rows scattering x[i]·row(i). This is
// the reference transpose kernel; the hot path (solver's sparse
// Gauss-Newton step) instead keeps an explicit transpose via TransposePlan
// and runs the row-parallel MulVecTo on it, which parallelizes without
// scatter conflicts and stays deterministic.
func (m *CSR) MulTVecTo(y, x mat.Vector) {
	if len(x) != m.rows || len(y) != m.cols {
		panic(fmt.Sprintf("sparse: MulTVec shapes y[%d] = Mᵀ(%dx%d)·x[%d]", len(y), m.rows, m.cols, len(x)))
	}
	y.Fill(0)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 { //parmavet:allow floateq -- sparsity skip: exact zeros contribute nothing
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			y[m.colIdx[k]] += xi * m.vals[k]
		}
	}
}

// Diagonal returns the matrix diagonal as a vector (square matrices only).
func (m *CSR) Diagonal() mat.Vector {
	d := mat.NewVector(m.rows)
	m.DiagonalTo(d)
	return d
}

// DiagonalTo writes the matrix diagonal into dst, avoiding allocation
// (square matrices only).
func (m *CSR) DiagonalTo(dst mat.Vector) {
	if m.rows != m.cols {
		panic("sparse: Diagonal requires a square matrix")
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("sparse: DiagonalTo dst length %d, want %d", len(dst), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = m.At(i, i)
	}
}

// Dense converts to a dense matrix (for tests and small problems).
func (m *CSR) Dense() *mat.Matrix {
	d := mat.NewMatrix(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.vals[k])
		}
	}
	return d
}
