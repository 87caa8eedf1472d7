package solver

// The sparse recovery path's symbolic layer. For an m×n array the log-space
// Jacobian row of pair (p, q) is dominated by the resistors that share a
// wire with the pair — the "cross" {(k,l): k==p or l==q}, 2n−1 of the n²
// entries at the paper's square sizes — because the drop across any other
// resistor is a difference of two floating-wire potentials, which decays
// like 1/n² relative to the cross entries (measured in
// TestSparsityRationale's probe and docs/performance.md). The cross pattern
// is pure geometry: the same index structure serves the Jacobian, its
// transpose, and the pattern-restricted normal matrix JᵀJ the IC(0)
// preconditioner factors, so it is computed once per geometry and shared.
//
// A Plan is immutable after NewPlan and safe for concurrent use: parmad's
// factorization cache keeps one per geometry and hands it to every
// concurrent recovery of that shape (see serve.FactorCache.SparsePlan).

import (
	"fmt"

	"parma/internal/mat"
	"parma/internal/sparse"
)

// Plan is the cached per-geometry symbolic structure of the sparse
// Gauss-Newton step: the cross pattern over pairs×unknowns, the transpose
// gather permutation, and the (identical, structurally symmetric) pattern
// the preconditioner's normal matrix lives on.
type Plan struct {
	m, n int
	// rowPtr/colIdx is the cross pattern of the (mn)×(mn) Jacobian: row
	// p·n+q holds columns {k·n+q : k ≠ p} ∪ {p·n+l : all l}, sorted. The
	// pattern is structurally symmetric, so the transpose and the
	// pattern-restricted JᵀJ share the same index arrays.
	rowPtr, colIdx []int
	// perm gathers transpose values from Jacobian values in O(nnz):
	// jt.Values()[k] = j.Values()[perm[k]].
	perm []int
}

// NewPlan computes the symbolic sparse-recovery structure for an m×n array.
func NewPlan(m, n int) *Plan {
	if m < 1 || n < 1 {
		panic(fmt.Sprintf("solver: invalid plan geometry %dx%d", m, n))
	}
	u := m * n
	nnz := u * (m + n - 1)
	p := &Plan{m: m, n: n,
		rowPtr: make([]int, u+1),
		colIdx: make([]int, 0, nnz)}
	for pq := 0; pq < u; pq++ {
		pr, q := pq/n, pq%n
		for k := 0; k < m; k++ {
			if k == pr {
				for l := 0; l < n; l++ {
					p.colIdx = append(p.colIdx, pr*n+l)
				}
			} else {
				p.colIdx = append(p.colIdx, k*n+q)
			}
		}
		p.rowPtr[pq+1] = len(p.colIdx)
	}
	// The cross pattern is structurally symmetric, so the transpose shares
	// rowPtr/colIdx; only the value-gather permutation must be computed.
	_, perm := sparse.FromPattern(u, u, p.rowPtr, p.colIdx).TransposePlan()
	p.perm = perm
	return p
}

// Rows returns the plan's array row count.
func (p *Plan) Rows() int { return p.m }

// Cols returns the plan's array column count.
func (p *Plan) Cols() int { return p.n }

// NNZ returns the structural pattern's entry count, m·n·(m+n−1).
func (p *Plan) NNZ() int { return len(p.colIdx) }

// normalChunkFlops is the work one pool chunk of Plan.NormalInto rows
// should carry.
const normalChunkFlops = 1 << 15

// NormalInto refreshes dst = JᵀJ restricted to the cross pattern, given
// jt = Jᵀ, where both dst and jt are built on the plan's pattern (the pure
// cross Jacobian's transpose shares it). It is sparse.NormalInto without
// the index merges: for Jᵀ rows i = (a, b) and j = (c, d) the pairs both
// rows hold follow from the geometry alone —
//
//   - i == j: the whole row;
//   - same grid row (c == a): the pairs (a, 0..n−1), the contiguous block
//     at offset a of both rows;
//   - same grid column (d == b): the pairs (0..m−1, b), which sit in three
//     contiguous segments of each row (see crossColumnDot).
//
// Each dot adds its products in ascending pair order, the order the merge
// visits them, so the values are bit-identical to sparse.NormalInto's.
// Rows fan out across the shared kernel pool, each owned by one worker.
func (p *Plan) NormalInto(dst, jt *sparse.CSR) {
	m, n := p.m, p.n
	u := m * n
	if dst.Rows() != u || jt.Rows() != u || dst.NNZ() != p.NNZ() || jt.NNZ() != p.NNZ() {
		panic(fmt.Sprintf("solver: Plan.NormalInto on %dx%d (nnz %d) from %dx%d (nnz %d), want the %dx%d cross pattern (nnz %d)",
			dst.Rows(), dst.Cols(), dst.NNZ(), jt.Rows(), jt.Cols(), jt.NNZ(), u, u, p.NNZ()))
	}
	grain := 1 + normalChunkFlops/(2*(m*m+n*n))
	mat.ParallelFor(u, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, b := i/n, i%n
			_, ti := jt.RowVals(i)
			cols, out := dst.RowVals(i)
			for s, j := range cols {
				_, tj := jt.RowVals(j)
				c := j / n
				var sum float64
				switch {
				case j == i:
					for _, v := range ti {
						sum += v * v
					}
				case c == a:
					x, y := ti[a:a+n], tj[a:a+n]
					for l, v := range x {
						sum += v * y[l]
					}
				default:
					sum = crossColumnDot(ti, tj, a, c, b, m, n)
				}
				out[s] = sum
			}
		}
	})
}

// crossColumnDot is the dot product of the cross-pattern rows ti of (a, b)
// and tj of (c, b), a ≠ c, over the pairs they share: (k, b) for
// k = 0..m−1, in ascending k. Within the row of (a, b), pair (k, b) sits at
// offset k for k < a, a+b for k = a, and k+n−1 for k > a, so the sum runs
// as contiguous segments split at a and c.
func crossColumnDot(ti, tj []float64, a, c, b, m, n int) float64 {
	// Strictly between lo and hi, the row whose own grid row is lo is past
	// its block (offset n−1) and the other has not reached its own (0).
	lo, hi := a, c
	offI, offJ := n-1, 0
	if c < a {
		lo, hi = c, a
		offI, offJ = 0, n-1
	}
	var sum float64
	for k := 0; k < lo; k++ {
		sum += ti[k] * tj[k]
	}
	if lo == a {
		sum += ti[a+b] * tj[lo]
	} else {
		sum += ti[lo] * tj[c+b]
	}
	for k := lo + 1; k < hi; k++ {
		sum += ti[k+offI] * tj[k+offJ]
	}
	if hi == a {
		sum += ti[a+b] * tj[hi+n-1]
	} else {
		sum += ti[hi+n-1] * tj[c+b]
	}
	for k := hi + 1; k < m; k++ {
		sum += ti[k+n-1] * tj[k+n-1]
	}
	return sum
}

// Method selects the linear-algebra backend of Recover's Gauss-Newton step.
type Method uint8

const (
	// MethodAuto picks dense or sparse from the geometry's size and pattern
	// density using the measured crossover model (see ResolveMethod and the
	// n-sweep table in docs/performance.md).
	MethodAuto Method = iota
	// MethodDense materializes the Jacobian, forms JᵀJ with the one-pass
	// SYRK kernel, and solves the damped normal equations by Cholesky —
	// the right call for small arrays, but O(n⁶) per iteration on squares.
	MethodDense
	// MethodSparse assembles a pruned CSR Jacobian on the cross pattern and
	// solves the damped normal equations matrix-free by preconditioned CG —
	// per-iteration cost scales with nnz ≈ 2·m·n·max(m,n), not (m·n)³.
	MethodSparse
)

// String returns the method's flag spelling.
func (m Method) String() string {
	switch m {
	case MethodDense:
		return "dense"
	case MethodSparse:
		return "sparse"
	default:
		return "auto"
	}
}

// ParseMethod parses a method flag value ("auto", "dense", "sparse").
func ParseMethod(s string) (Method, error) {
	switch s {
	case "", "auto":
		return MethodAuto, nil
	case "dense":
		return MethodDense, nil
	case "sparse":
		return MethodSparse, nil
	}
	return MethodAuto, fmt.Errorf("solver: unknown method %q (want auto, dense, or sparse)", s)
}

// sparseCGItersEst is the effective CG iteration count the auto cost model
// charges one sparse Gauss-Newton step, calibrated against the measured
// n-sweep (BENCH_recover.json, 2026-08 records): at n=16 the sparse path
// measured 1.84× faster end to end, which pins the model's dense/sparse
// flop ratio n⁴/(8·k·(2n−1)) to k ≈ 144. The constant folds in assembly,
// preconditioner refresh, and the damping ladder's retries, and puts the
// square-array crossover at n ≈ 13: dense through 12×12, sparse from
// 14×14 up (13×13 is within noise of break-even).
const sparseCGItersEst = 144

// ResolveMethod maps MethodAuto to a concrete backend for an m×n geometry
// by comparing per-iteration flop models: dense pays the SYRK + Cholesky
// O(u³) bill (u = m·n unknowns), sparse pays CG SpMVs on the cross
// pattern's nnz = u·(m+n−1). The density ratio nnz/u² is what makes large
// arrays sparse territory: it decays like 2/min(m,n). Exported so the
// serving layer can group and cache requests by the method that will
// actually run, and so benchmarks can report it.
func ResolveMethod(m, n int, method Method) Method {
	if method != MethodAuto {
		return method
	}
	u := m * n
	nnz := u * (m + n - 1)
	denseFlops := float64(u) * float64(u) * float64(u+1) / 2 // SYRK half + Cholesky sixth, per solve
	sparseFlops := float64(sparseCGItersEst) * 4 * float64(nnz)
	if sparseFlops < denseFlops {
		return MethodSparse
	}
	return MethodDense
}
