package sparse

import (
	"context"
	"math/rand"
	"testing"

	"parma/internal/mat"
)

// spdLaplacian builds a grounded path-graph Laplacian — SPD and well
// conditioned — of order n.
func spdLaplacian(n int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
		}
		if i < n-1 {
			b.Add(i, i+1, -1)
		}
	}
	return b.Build()
}

// csrOp adapts a CSR matrix to the Operator interface for the tests, which
// solve explicit matrices; production CG runs the solver's matrix-free
// normal operator.
type csrOp struct{ a *CSR }

func (o csrOp) Dim() int                { return o.a.Rows() }
func (o csrOp) Apply(dst, x mat.Vector) { o.a.MulVecTo(dst, x) }

// jacobiOf returns the Jacobi preconditioner of a matrix with a positive
// diagonal.
func jacobiOf(a *CSR) *Jacobi {
	inv := a.Diagonal()
	for i, d := range inv {
		inv[i] = 1 / d
	}
	return &Jacobi{InvDiag: inv}
}

// TestCGWithWorkspaceReuse solves a sequence of systems through one
// workspace and checks each against a fresh-workspace CG run: stale buffer
// contents from the previous solve must not leak into the next.
func TestCGWithWorkspaceReuse(t *testing.T) {
	a := spdLaplacian(40)
	rng := rand.New(rand.NewSource(13))
	ws := new(Workspace)
	for _, pre := range []Preconditioner{jacobiOf(a), nil} {
		for rep := 0; rep < 4; rep++ {
			b := mat.NewVector(40)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			opts := CGOptions{Tol: 1e-12}
			want, _, err := CGOp(context.Background(), new(Workspace), csrOp{a}, b, pre, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := CGOp(context.Background(), ws, csrOp{a}, b, pre, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.ApproxEqual(want, 1e-10) {
				t.Fatalf("precond=%T rep=%d: workspace solve differs from fresh solve", pre, rep)
			}
		}
	}
}

// TestCGOpAllocates pins the point of the workspace: a warm workspace
// solve performs no per-iteration vector allocations.
func TestCGOpAllocates(t *testing.T) {
	a := spdLaplacian(64)
	b := mat.NewVector(64)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	ws := new(Workspace)
	var op Operator = csrOp{a}
	var pre Preconditioner = jacobiOf(a)
	opts := CGOptions{Tol: 1e-10}
	if _, _, err := CGOp(context.Background(), ws, op, b, pre, opts); err != nil { // warm-up sizes the buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := CGOp(context.Background(), ws, op, b, pre, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm CGOp allocates %.1f objects per solve, want 0", allocs)
	}
}

func TestDiagonalTo(t *testing.T) {
	a := spdLaplacian(5)
	dst := mat.NewVector(5)
	dst.Fill(99)
	a.DiagonalTo(dst)
	if !dst.ApproxEqual(mat.Vector{2, 2, 2, 2, 2}, 0) {
		t.Fatalf("DiagonalTo = %v", dst)
	}
}
