package solver

// The sparse recovery path's symbolic layer. For an m×n array the log-space
// Jacobian row of pair (p, q) is dominated by the resistors that share a
// wire with the pair — the "cross" {(k,l): k==p or l==q}, 2n−1 of the n²
// entries at the paper's square sizes — because the drop across any other
// resistor is a difference of two floating-wire potentials, which decays
// like 1/n² relative to the cross entries (measured in
// TestSparsityRationale's probe and docs/performance.md). The cross pattern
// is pure geometry: the same index structure serves the Jacobian and its
// transpose, so it is computed once per geometry and shared.
//
// A Plan is immutable after NewPlan and safe for concurrent use: parmad's
// factorization cache keeps one per geometry and hands it to every
// concurrent recovery of that shape (see serve.FactorCache.SparsePlan).

import (
	"fmt"

	"parma/internal/sparse"
)

// Plan is the cached per-geometry symbolic structure of the sparse
// Gauss-Newton step: the cross pattern over pairs×unknowns and the
// transpose gather permutation.
type Plan struct {
	m, n int
	// rowPtr/colIdx is the cross pattern of the (mn)×(mn) Jacobian: row
	// p·n+q holds columns {k·n+q : k ≠ p} ∪ {p·n+l : all l}, sorted. The
	// pattern is structurally symmetric, so the transpose shares the same
	// index arrays.
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
// charges one sparse Gauss-Newton step, calibrated against the n=16 pair of
// the first dense/sparse n-sweep in BENCH_recover.json (GOMAXPROCS 1,
// IC(0)-preconditioned CG): there the sparse path measured 1.84× faster end
// to end, which pins the model's dense/sparse flop ratio
// n⁴/(8·k·(2n−1)) to k ≈ 144. The constant folds in assembly,
// preconditioner refresh, and the damping ladder's retries, and puts the
// square-array crossover at n ≈ 13: dense through 12×12, sparse from
// 14×14 up (13×13 is within noise of break-even). The Jacobi-preconditioned
// step measured since is cheaper, so the model now errs toward dense near
// the crossover; it is kept at this calibration because moving it moves
// serving traffic between the backends (docs/performance.md).
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
