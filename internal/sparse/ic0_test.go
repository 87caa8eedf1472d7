package sparse

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"parma/internal/mat"
)

// randomSPD returns a dense-pattern SPD matrix A = BᵀB + n·I as CSR plus
// its dense mirror.
func randomSPD(rng *rand.Rand, n int) (*CSR, *mat.Matrix) {
	bm := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			bm.Set(i, j, rng.NormFloat64())
		}
	}
	dense := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += bm.At(k, i) * bm.At(k, j)
			}
			if i == j {
				s += float64(n)
			}
			dense.Set(i, j, s)
		}
	}
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Add(i, j, dense.At(i, j))
		}
	}
	return b.Build(), dense
}

// TestIC0FullPatternIsExactCholesky: on a full pattern, IC(0) has nothing to
// drop, so Precondition must apply the exact inverse.
func TestIC0FullPatternIsExactCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, dense := randomSPD(rng, 8)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := ic.Refresh(a, nil); err != nil {
		t.Fatal(err)
	}
	rhs := mat.NewVector(8)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	got := mat.NewVector(8)
	ic.Precondition(got, rhs)
	lu, err := mat.Factorize(dense)
	if err != nil {
		t.Fatal(err)
	}
	want := lu.Solve(rhs)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestIC0Shift: factoring A with shift s must equal factoring A + diag(s)
// directly — the contract the Levenberg ladder relies on to reuse one
// symbolic factor across λ changes.
func TestIC0Shift(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a, dense := randomSPD(rng, 6)
	shift := mat.NewVector(6)
	for i := range shift {
		shift[i] = 1 + rng.Float64()
	}
	shifted := mat.NewMatrix(6, 6)
	shifted.CopyFrom(dense)
	for i := 0; i < 6; i++ {
		shifted.Add(i, i, shift[i])
	}
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := ic.Refresh(a, shift); err != nil {
		t.Fatal(err)
	}
	rhs := mat.NewVector(6)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	got := mat.NewVector(6)
	ic.Precondition(got, rhs)
	lu, err := mat.Factorize(shifted)
	if err != nil {
		t.Fatal(err)
	}
	want := lu.Solve(rhs)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestIC0Breakdown(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 5)
	b.Add(1, 0, 5)
	b.Add(1, 1, 1) // 1 − 25 < 0: indefinite, pivot must break down
	a := b.Build()
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := ic.Refresh(a, nil); !errors.Is(err, ErrIC0Breakdown) {
		t.Fatalf("err = %v, want ErrIC0Breakdown", err)
	}
	// A large enough shift rescues the same symbolic factor.
	if err := ic.Refresh(a, mat.Vector{30, 30}); err != nil {
		t.Fatalf("shifted refresh failed: %v", err)
	}
}

func TestIC0RequiresDiagonal(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(1, 0, 1) // row 1 has no diagonal entry
	if _, err := NewIC0(b.Build()); err == nil {
		t.Fatal("expected missing-diagonal error")
	}
	if _, err := NewIC0(randomCSR(rand.New(rand.NewSource(1)), 3, 4, 0.9)); err == nil {
		t.Fatal("expected non-square error")
	}
}

// TestIC0PreconditionedCG: on a genuinely sparse SPD system (grounded
// 2-D Laplacian pattern) IC(0) is incomplete, but preconditioned CG must
// still reach the exact solution — and in fewer iterations than plain CG.
func TestIC0PreconditionedCG(t *testing.T) {
	// 1-D chain Laplacian + I of size n: tridiagonal SPD.
	n := 64
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 3)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	a := b.Build()
	rhs := mat.NewVector(n)
	rng := rand.New(rand.NewSource(2))
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := ic.Refresh(a, nil); err != nil {
		t.Fatal(err)
	}
	var ws Workspace
	x, stats, err := CGOp(context.Background(), &ws, csrOp{a}, rhs, ic, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	var wsPlain Workspace
	_, plain, err := CGOp(context.Background(), &wsPlain, csrOp{a}, rhs, nil, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations >= plain.Iterations {
		t.Fatalf("IC(0) CG took %d iterations, plain took %d", stats.Iterations, plain.Iterations)
	}
	// Verify the solution against the residual directly.
	r := a.MulVec(x)
	for i := range r {
		if math.Abs(r[i]-rhs[i]) > 1e-9 {
			t.Fatalf("residual[%d] = %g", i, r[i]-rhs[i])
		}
	}
}
