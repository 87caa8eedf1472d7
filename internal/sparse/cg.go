package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"

	"parma/internal/mat"
)

// ErrNoConvergence is returned when an iterative solve exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNoConvergence = errors.New("sparse: conjugate gradient did not converge")

// CGOptions configures the conjugate gradient solver.
type CGOptions struct {
	// Tol is the relative residual target ‖r‖/‖b‖. Zero means 1e-10.
	Tol float64
	// MaxIter bounds the iteration count. Zero means 10·n (the Laplacians
	// we solve are well conditioned after grounding, but leave slack).
	MaxIter int
	// Precondition enables Jacobi (diagonal) preconditioning.
	Precondition bool
}

// Operator is a square linear operator applied matrix-free. The sparse
// Gauss-Newton step solves JᵀJ + λD systems without materializing the
// product: its operator runs two SpMVs and a diagonal shift per Apply.
type Operator interface {
	// Dim is the operator's (square) dimension.
	Dim() int
	// Apply computes dst = A·x. dst never aliases x.
	Apply(dst, x mat.Vector)
}

// Preconditioner approximates A⁻¹ for convergence acceleration.
type Preconditioner interface {
	// Precondition computes dst = M⁻¹·r. dst never aliases r.
	Precondition(dst, r mat.Vector)
}

// Jacobi is diagonal preconditioning: dst = InvDiag ∘ r.
type Jacobi struct{ InvDiag mat.Vector }

// Precondition implements Preconditioner.
func (j Jacobi) Precondition(dst, r mat.Vector) { applyDiag(dst, j.InvDiag, r) }

// InvertDiagonal fills dst with 1/d for positive entries and the neutral 1
// otherwise — the standard Jacobi safeguard for zero or negative diagonals.
func InvertDiagonal(dst, d mat.Vector) {
	for i, v := range d {
		if v > 0 {
			dst[i] = 1 / v
		} else {
			dst[i] = 1
		}
	}
}

// CGStats reports how a CG solve went, whether or not it converged.
type CGStats struct {
	// Iterations is the number of iterations performed.
	Iterations int
	// Residual is the final relative residual ‖r‖/‖b‖.
	Residual float64
}

// Workspace holds the conjugate gradient work vectors (x, r, z, p, A·p and
// the preconditioner diagonal) so repeated solves against same-sized
// systems — the recovery solver's per-iteration normal equations above
// all — reuse one set of buffers instead of allocating five vectors per
// solve. The zero value is ready; buffers grow on first use and are
// retained. A Workspace serves one solve at a time (guard it or pool it
// for concurrent callers).
type Workspace struct {
	x, r, z, p, ap, invDiag mat.Vector
	jac                     Jacobi // boxed as *Jacobi so warm solves stay allocation-free
}

// vec returns a length-n view of buf, growing it when needed; the contents
// are unspecified, callers overwrite.
func (w *Workspace) vec(buf *mat.Vector, n int) mat.Vector {
	if cap(*buf) < n {
		*buf = mat.NewVector(n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// CG solves A·x = b for a symmetric positive (semi)definite CSR matrix using
// the conjugate gradient method, optionally Jacobi-preconditioned.
// The returned vector is a fresh allocation; b is not modified.
func CG(a *CSR, b mat.Vector, opts CGOptions) (mat.Vector, error) {
	// A fresh workspace means the returned x is a fresh allocation, keeping
	// this entry point's contract while the solve itself shares CGWith.
	return CGWith(new(Workspace), a, b, opts)
}

// csrOperator adapts a CSR matrix to the Operator interface. It is a type
// conversion, not a wrapper struct, so boxing *csrOperator into the
// interface stores the pointer directly — no per-solve allocation.
type csrOperator CSR

func (o *csrOperator) Dim() int                { return (*CSR)(o).Rows() }
func (o *csrOperator) Apply(dst, x mat.Vector) { (*CSR)(o).MulVecTo(dst, x) }

// CGWith is CG running entirely in ws's buffers: zero allocations once the
// workspace is warm. The returned vector aliases the workspace and is only
// valid until its next solve — callers that keep the solution Clone it.
func CGWith(ws *Workspace, a *CSR, b mat.Vector, opts CGOptions) (mat.Vector, error) {
	if a.Rows() != a.Cols() {
		panic(fmt.Sprintf("sparse: CG requires a square matrix, got %dx%d", a.Rows(), a.Cols()))
	}
	var pre Preconditioner
	if opts.Precondition {
		invDiag := ws.vec(&ws.invDiag, a.Rows())
		a.DiagonalTo(invDiag)
		InvertDiagonal(invDiag, invDiag)
		ws.jac = Jacobi{InvDiag: invDiag}
		pre = &ws.jac
	}
	x, _, err := CGOp(context.Background(), ws, (*csrOperator)(a), b, pre, opts)
	return x, err
}

// cgCancelStride is how many CG iterations run between context checks: the
// cancellation latency of a CG-backed solve is bounded by this many SpMVs.
const cgCancelStride = 32

// CGOp solves A·x = b for a symmetric positive definite Operator, entirely
// in ws's buffers (zero allocations once the workspace is warm), with an
// optional Preconditioner (nil means identity). The returned vector aliases
// the workspace and is only valid until its next solve.
//
// Cancelling ctx aborts the iteration within cgCancelStride iterations; the
// returned error wraps ctx's error and the best iterate so far is still
// returned. On ErrNoConvergence the best iterate is likewise returned —
// callers doing damped outer iterations (Levenberg-Marquardt) typically use
// the inexact step anyway and let the outer acceptance test judge it.
func CGOp(ctx context.Context, ws *Workspace, op Operator, b mat.Vector, pre Preconditioner, opts CGOptions) (mat.Vector, CGStats, error) {
	n := op.Dim()
	if len(b) != n {
		panic(fmt.Sprintf("sparse: CG right-hand side length %d, want %d", len(b), n))
	}
	tol := opts.Tol
	if tol == 0 {
		tol = 1e-10
	}
	maxIter := opts.MaxIter
	if maxIter == 0 {
		maxIter = 10 * n
		if maxIter < 100 {
			maxIter = 100
		}
	}

	x := ws.vec(&ws.x, n)
	x.Fill(0)
	r := ws.vec(&ws.r, n)
	copy(r, b) // r = b - A·0
	bnorm := b.Norm2()
	if bnorm == 0 {
		return x, CGStats{}, nil
	}

	z := ws.vec(&ws.z, n)
	if pre != nil {
		pre.Precondition(z, r)
	} else {
		copy(z, r)
	}
	p := ws.vec(&ws.p, n)
	copy(p, z)
	rz := r.Dot(z)
	ap := ws.vec(&ws.ap, n)

	stats := CGStats{}
	for iter := 0; iter < maxIter; iter++ {
		stats.Iterations = iter
		stats.Residual = r.Norm2() / bnorm
		if stats.Residual <= tol {
			return x, stats, nil
		}
		if iter%cgCancelStride == 0 {
			if err := ctx.Err(); err != nil {
				return x, stats, fmt.Errorf("sparse: CG canceled at iteration %d: %w", iter, err)
			}
		}
		op.Apply(ap, p)
		pap := p.Dot(ap)
		if pap <= 0 || math.IsNaN(pap) {
			// Indefinite direction: the operator is not SPD on this subspace.
			return x, stats, fmt.Errorf("sparse: CG breakdown at iteration %d (pᵀAp = %g)", iter, pap)
		}
		alpha := rz / pap
		x.AddScaled(alpha, p)
		r.AddScaled(-alpha, ap)
		if pre != nil {
			pre.Precondition(z, r)
		} else {
			copy(z, r)
		}
		rzNext := r.Dot(z)
		beta := rzNext / rz
		rz = rzNext
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	stats.Iterations = maxIter
	stats.Residual = r.Norm2() / bnorm
	if stats.Residual <= tol {
		return x, stats, nil
	}
	return x, stats, ErrNoConvergence
}

func applyDiag(dst, diag, src mat.Vector) {
	for i := range dst {
		dst[i] = diag[i] * src[i]
	}
}
