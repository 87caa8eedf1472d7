package solver

// The sparse Gauss-Newton backend of Recover: a CSR Jacobian on the
// per-geometry cross pattern (optionally augmented by thresholded
// sensitivity survivors measured at the initial iterate), the damped normal
// equations solved matrix-free by Jacobi-preconditioned conjugate gradient —
// two SpMVs and a diagonal Levenberg shift per CG iteration instead of a dense
// SYRK and Cholesky — and numeric-only per-iteration refresh of every
// symbolic structure. Pruning is residual-verified twice over: the dropped
// sensitivity mass is measured and exported at pattern-build time, and the
// outer LM loop accepts a step only when the exact forward residual
// decreases, so a pruned step can cost iterations but never corrupt the
// recovered field.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"parma/internal/circuit"
	"parma/internal/grid"
	"parma/internal/mat"
	"parma/internal/obs"
	"parma/internal/sparse"
)

// Sparse-path tuning defaults; see RecoverOptions for the overrides.
const (
	// defaultDropTol prunes Jacobian entries below this fraction of their
	// row's largest sensitivity when building the pattern. 1e-2 keeps the
	// cross plus any anomalously strong off-cross couplings and drops the
	// 1/n²-decaying bulk (the probe behind this number is documented in
	// docs/performance.md).
	defaultDropTol = 1e-2
	// defaultCGTol is the relative residual target of each damped
	// normal-equation CG solve: tight enough that accepted LM steps track
	// the dense Cholesky steps, loose enough not to burn SpMVs polishing a
	// direction the damping ladder may reject anyway.
	defaultCGTol = 1e-10
)

// sparseStepper solves the damped Gauss-Newton normal equations on CSR
// structures. One stepper serves one recovery; the symbolic plan it builds
// on may be shared across recoveries (serve caches one per geometry).
type sparseStepper struct {
	arr  grid.Array
	plan *Plan
	opts RecoverOptions

	built     bool
	augmented bool // pattern grew beyond the structural cross
	j, jt     *sparse.CSR
	perm      []int

	// Iteration-scoped numeric state, refreshed by prepare.
	r    *grid.Field
	jtr  mat.Vector // Jᵀ·res, the damped systems' right-hand side
	diag mat.Vector // diag(JᵀJ) + the same 1e-12 floor the dense path damps

	// Per-solve scratch.
	shifted mat.Vector    // λ·diag, the Levenberg diagonal shift
	jacobi  sparse.Jacobi // 1/(diag + λ·diag), passed by pointer so solves do not box it
	apScr   mat.Vector    // pairs-length J·p scratch for the operator
	ws      sparse.Workspace

	cgIters int // cumulative across the recovery, reported in the result
}

func newSparseStepper(arr grid.Array, opts RecoverOptions) *sparseStepper {
	plan := opts.Plan
	if plan == nil || plan.Rows() != arr.Rows() || plan.Cols() != arr.Cols() {
		plan = NewPlan(arr.Rows(), arr.Cols())
	}
	u := arr.Rows() * arr.Cols()
	return &sparseStepper{
		arr: arr, plan: plan, opts: opts,
		jtr: mat.NewVector(u), diag: mat.NewVector(u),
		shifted: mat.NewVector(u), jacobi: sparse.Jacobi{InvDiag: mat.NewVector(u)},
		apScr: mat.NewVector(u),
	}
}

func (st *sparseStepper) stats() (int, int) {
	nnz := 0
	if st.j != nil {
		nnz = st.j.NNZ()
	}
	return st.cgIters, nnz
}

// dropTol resolves the pruning threshold: 0 selects the default, negative
// disables pruning entirely (every nonzero sensitivity is kept — the
// dense-equivalent reference mode the golden tests run; its pattern is
// quadratic in the unknowns, so it is test-grade, not production-grade).
func (st *sparseStepper) dropTol() float64 {
	if st.opts.SparseDropTol < 0 {
		return -1
	}
	if st.opts.SparseDropTol == 0 { //parmavet:allow floateq -- zero is the "unset option" sentinel, assigned not computed
		return defaultDropTol
	}
	return st.opts.SparseDropTol
}

// prepare assembles the linearization at the current iterate: numeric
// Jacobian refresh on the fixed pattern (built on first call), transpose
// gather, right-hand side, and the normal-matrix diagonal the Jacobi
// preconditioner inverts.
func (st *sparseStepper) prepare(ctx context.Context, fwd *circuit.Solver, r *grid.Field, res mat.Vector) {
	st.r = r
	if !st.built {
		st.buildPattern(ctx, fwd, r)
	}
	m, n := st.arr.Rows(), st.arr.Cols()
	sp := obs.StartSpanIn(ctx, "solver/jacobian_sparse")
	rv := r.Values()
	// Each pair owns one Jacobian row; workers write disjoint slots and the
	// per-slot arithmetic is order-free, so the refresh is deterministic at
	// any pool width. Every slot reads its drop from the forward solver's
	// allocation-free pair view (two rows of its Green's function) and
	// applies the log-space scaling the dense assembly applies.
	mat.ParallelFor(m*n, 1, func(lo, hi int) {
		for pq := lo; pq < hi; pq++ {
			x := fwd.Pair(pq/n, pq%n)
			cols, vals := st.j.RowVals(pq)
			for s, kl := range cols {
				ratio := x.Drop(kl/n, kl%n) / rv[kl]
				vals[s] = ratio * ratio * rv[kl]
			}
		}
	})
	sparse.Gather(st.jt.Values(), st.j.Values(), st.perm)
	st.jt.MulVecTo(st.jtr, res)
	// diag(JᵀJ)[d] is the squared norm of Jᵀ's row d, accumulated in pair
	// order — one worker per chunk of unknowns, deterministic. The 1e-12
	// floor matches the dense path's buildDamped.
	mat.ParallelFor(m*n, 64, func(lo, hi int) {
		for d := lo; d < hi; d++ {
			_, tv := st.jt.RowVals(d)
			var s float64
			for _, v := range tv {
				s += v * v
			}
			st.diag[d] = s + 1e-12
		}
	})
	if sp.Active() {
		sp.End(obs.I("pairs", m*n), obs.I("nnz", st.j.NNZ()))
	}
	obs.Add("sparse/flops", int64(4*st.j.NNZ()))
}

// buildPattern decides, once per recovery, which Jacobian entries the
// sparse path keeps: the structural cross always, plus any off-cross entry
// whose sensitivity at the initial iterate reaches dropTol × its row's
// maximum. The initial iterate is a pure function of the inputs (uniform
// closed form or the caller's seed field), so the pattern — and with it the
// whole solve — is deterministic for a given workload. When nothing beyond
// the cross survives (the common case), the plan's shared index arrays are
// used as-is and the per-geometry cache pays off across recoveries.
func (st *sparseStepper) buildPattern(ctx context.Context, fwd *circuit.Solver, r *grid.Field) {
	m, n := st.arr.Rows(), st.arr.Cols()
	u := m * n
	sp := obs.StartSpanIn(ctx, "solver/sparse_pattern")
	tol := st.dropTol()
	rv := r.Values()
	// Scan every candidate entry: one pass for the row maximum, one to
	// classify, both reading the pair's drops straight from the forward
	// solver's pair view, so the scan allocates nothing per pair unless an
	// off-cross entry survives. Rows are independent: workers write
	// disjoint survivor slots, and each sums its row's kept and dropped
	// mass locally and stores them once, so workers on neighbouring rows do
	// not contend for one cache line per entry.
	survivors := make([][]int32, u)
	kept := make([]float64, u)    // per-row kept sensitivity mass (squared values)
	dropped := make([]float64, u) // per-row pruned mass
	mat.ParallelFor(u, 1, func(lo, hi int) {
		for pq := lo; pq < hi; pq++ {
			p, q := pq/n, pq%n
			x := fwd.Pair(p, q)
			sens := func(k, l int) float64 {
				ratio := x.Drop(k, l) / rv[k*n+l]
				return ratio * ratio * rv[k*n+l]
			}
			rowMax := 0.0
			for k := 0; k < m; k++ {
				for l := 0; l < n; l++ {
					if a := math.Abs(sens(k, l)); a > rowMax {
						rowMax = a
					}
				}
			}
			cut := tol * rowMax
			var keptSum, droppedSum float64
			for k := 0; k < m; k++ {
				for l := 0; l < n; l++ {
					v := sens(k, l)
					onCross := k == p || l == q
					keep := onCross || (tol < 0 && v != 0) || (tol >= 0 && math.Abs(v) >= cut) //parmavet:allow floateq -- exact zeros carry no sensitivity even in keep-all mode
					if keep {
						keptSum += v * v
						if !onCross {
							survivors[pq] = append(survivors[pq], int32(k*n+l))
						}
					} else {
						droppedSum += v * v
					}
				}
			}
			kept[pq], dropped[pq] = keptSum, droppedSum
		}
	})
	extra := 0
	for _, s := range survivors {
		extra += len(s)
	}
	var keptMass, droppedMass float64
	for i := range kept {
		keptMass += kept[i]
		droppedMass += dropped[i]
	}
	if total := keptMass + droppedMass; total > 0 {
		obs.SetGauge("solver/sparse_dropped_mass", droppedMass/total)
	}
	if extra == 0 {
		// Pure structural cross: share the plan's immutable index arrays;
		// only the values are private to this recovery.
		st.j = sparse.FromPattern(u, u, st.plan.rowPtr, st.plan.colIdx)
		st.jt = sparse.FromPattern(u, u, st.plan.rowPtr, st.plan.colIdx)
		st.perm = st.plan.perm
	} else {
		// Merge the survivors into the cross, row by row, keeping columns
		// sorted. The augmented pattern is private to this recovery.
		st.augmented = true
		obs.Add("solver/sparse_pattern_augmented", 1)
		rowPtr := make([]int, u+1)
		colIdx := make([]int, 0, st.plan.NNZ()+extra)
		for pq := 0; pq < u; pq++ {
			base := st.plan.colIdx[st.plan.rowPtr[pq]:st.plan.rowPtr[pq+1]]
			add := survivors[pq]
			bi, ai := 0, 0
			for bi < len(base) || ai < len(add) {
				switch {
				case ai == len(add) || (bi < len(base) && base[bi] < int(add[ai])):
					colIdx = append(colIdx, base[bi])
					bi++
				default:
					colIdx = append(colIdx, int(add[ai]))
					ai++
				}
			}
			rowPtr[pq+1] = len(colIdx)
		}
		st.j = sparse.FromPattern(u, u, rowPtr, colIdx)
		jt, perm := st.j.TransposePlan()
		st.jt, st.perm = jt, perm
	}
	st.built = true
	if sp.Active() {
		sp.End(obs.I("nnz", st.j.NNZ()), obs.I("extra", extra))
	}
}

// normalOperator is the matrix-free damped normal operator
// (JᵀJ + λ·diag)·p, applied as two SpMVs plus a diagonal shift.
type normalOperator struct {
	j, jt   *sparse.CSR
	shifted mat.Vector
	t       mat.Vector
}

func (o *normalOperator) Dim() int { return o.jt.Rows() }

func (o *normalOperator) Apply(dst, x mat.Vector) {
	o.j.MulVecTo(o.t, x)
	o.jt.MulVecTo(dst, o.t)
	for i, s := range o.shifted {
		dst[i] += s * x[i]
	}
}

// solve computes the damped step for the current λ. It reports false to
// send the caller up the damping ladder (CG breakdown: the operator was
// not SPD enough at this λ) and an error only for cancellation. A CG run
// that merely exhausts its budget still yields a usable inexact direction —
// the LM acceptance test judges it against the exact residual.
func (st *sparseStepper) solve(ctx context.Context, step mat.Vector, lambda float64) (bool, error) {
	for i, d := range st.diag {
		st.shifted[i] = lambda * d
	}
	// Jacobi on the damped diagonal. The exact JᵀJ of a crossbar is
	// structurally dense — off-cross resistors (k,l) and (k′,l′) share the
	// pairs (k,l′) and (k′,l) — so an incomplete factorization restricted to
	// the cross discards most of the operator: it measured more CG
	// iterations than the diagonal alone, at twice the cost per iteration
	// plus a refactorization per damping trial (docs/performance.md).
	for i, d := range st.diag {
		st.jacobi.InvDiag[i] = 1 / (d + st.shifted[i])
	}
	cgTol := st.opts.SparseCGTol
	if cgTol == 0 { //parmavet:allow floateq -- zero is the "unset option" sentinel, assigned not computed
		cgTol = defaultCGTol
	}
	op := &normalOperator{j: st.j, jt: st.jt, shifted: st.shifted, t: st.apScr}
	sp := obs.StartSpanIn(ctx, "solver/sparse_step")
	x, stats, err := sparse.CGOp(ctx, &st.ws, op, st.jtr, &st.jacobi, sparse.CGOptions{Tol: cgTol})
	st.cgIters += stats.Iterations
	obs.Add("sparse/flops", int64(stats.Iterations)*int64(8*st.j.NNZ()+6*len(st.jtr)))
	if sp.Active() {
		sp.End(obs.I("cg_iters", stats.Iterations), obs.F("cg_residual", stats.Residual),
			obs.F("lambda", lambda))
	}
	if err != nil {
		if ctx.Err() != nil {
			return false, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		if errors.Is(err, sparse.ErrNoConvergence) {
			// Inexact step: let the damped acceptance test judge it.
			obs.Add("solver/cg_noconv", 1)
			copy(step, x)
			return true, nil
		}
		// Breakdown — climb the damping ladder like the dense Cholesky path.
		obs.Add("solver/cg_breakdowns", 1)
		return false, nil
	}
	copy(step, x)
	return true, nil
}
