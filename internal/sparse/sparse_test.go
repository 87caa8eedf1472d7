package sparse

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"parma/internal/mat"
)

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1.5)
	b.Add(0, 0, 2.5)
	b.Add(1, 1, -3)
	b.Add(1, 0, 1)
	b.Add(1, 0, -1) // cancels to exact zero, must be dropped
	m := b.Build()
	if m.At(0, 0) != 4 {
		t.Fatalf("At(0,0) = %v, want 4", m.At(0, 0))
	}
	if m.At(1, 1) != -3 {
		t.Fatalf("At(1,1) = %v, want -3", m.At(1, 1))
	}
	if m.At(1, 0) != 0 {
		t.Fatalf("At(1,0) = %v, want 0", m.At(1, 0))
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (cancelled entry kept?)", m.NNZ())
	}
	if m.At(0, 1) != 0 {
		t.Fatal("absent entry not zero")
	}
}

func TestBuilderOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Add")
		}
	}()
	NewBuilder(1, 1).Add(1, 0, 1)
}

func TestMulVecMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(20), 1+rng.Intn(20)
		b := NewBuilder(r, c)
		for k := 0; k < r*c/2+1; k++ {
			b.Add(rng.Intn(r), rng.Intn(c), rng.NormFloat64())
		}
		m := b.Build()
		d := m.Dense()
		x := mat.NewVector(c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return m.MulVec(x).ApproxEqual(d.MulVec(x), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDiagonal(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 0, 2)
	b.Add(1, 1, 5)
	b.Add(2, 0, 7) // off-diagonal
	m := b.Build()
	d := m.Diagonal()
	if !d.ApproxEqual(mat.Vector{2, 5, 0}, 0) {
		t.Fatalf("Diagonal = %v", d)
	}
}

// laplacianOfPath builds the graph Laplacian of an n-node path with unit
// conductances and one grounded node (making it SPD).
func laplacianOfPath(n int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i+1 < n; i++ {
		b.Add(i, i, 1)
		b.Add(i+1, i+1, 1)
		b.Add(i, i+1, -1)
		b.Add(i+1, i, -1)
	}
	b.Add(0, 0, 1) // ground node 0
	return b.Build()
}

func TestCGSolvesGroundedLaplacian(t *testing.T) {
	n := 50
	a := laplacianOfPath(n)
	for _, pre := range []Preconditioner{nil, jacobiOf(a)} {
		want := mat.NewVector(n)
		rng := rand.New(rand.NewSource(4))
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		rhs := a.MulVec(want)
		got, _, err := CGOp(context.Background(), new(Workspace), csrOp{a}, rhs, pre, CGOptions{Tol: 1e-12})
		if err != nil {
			t.Fatalf("precondition=%T: %v", pre, err)
		}
		if !got.ApproxEqual(want, 1e-6) {
			t.Fatalf("precondition=%T: CG solution off: max err vs want", pre)
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := laplacianOfPath(10)
	x, _, err := CGOp(context.Background(), new(Workspace), csrOp{a}, mat.NewVector(10), nil, CGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if x.Norm2() != 0 {
		t.Fatalf("CG(0) = %v, want zero vector", x)
	}
}

func TestCGIterationBudget(t *testing.T) {
	a := laplacianOfPath(200)
	rhs := mat.NewVector(200)
	rhs[100] = 1
	_, _, err := CGOp(context.Background(), new(Workspace), csrOp{a}, rhs, nil, CGOptions{Tol: 1e-14, MaxIter: 2})
	if err == nil {
		t.Fatal("expected ErrNoConvergence with a 2-iteration budget")
	}
}

// TestCGOpRejectsMismatchedRHS: a right-hand side whose length is not the
// operator's dimension is a caller bug and panics.
func TestCGOpRejectsMismatchedRHS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a mismatched right-hand side")
		}
	}()
	CGOp(context.Background(), new(Workspace), csrOp{laplacianOfPath(2)}, mat.NewVector(3), nil, CGOptions{})
}
