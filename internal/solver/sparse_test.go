package solver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"parma/internal/circuit"
	"parma/internal/gen"
	"parma/internal/grid"
	"parma/internal/mat"
)

// TestPlanCrossPattern pins the symbolic layer: row (p, q) of the plan holds
// exactly the cross {(k, l): k == p or l == q}, sorted, the pattern is
// structurally symmetric, and the entry count is m·n·(m+n−1).
func TestPlanCrossPattern(t *testing.T) {
	m, n := 3, 4
	p := NewPlan(m, n)
	if p.NNZ() != m*n*(m+n-1) {
		t.Fatalf("NNZ = %d, want %d", p.NNZ(), m*n*(m+n-1))
	}
	in := make(map[[2]int]bool)
	for pq := 0; pq < m*n; pq++ {
		cols := p.colIdx[p.rowPtr[pq]:p.rowPtr[pq+1]]
		pr, q := pq/n, pq%n
		want := map[int]bool{}
		for k := 0; k < m; k++ {
			want[k*n+q] = true
		}
		for l := 0; l < n; l++ {
			want[pr*n+l] = true
		}
		if len(cols) != len(want) {
			t.Fatalf("row %d has %d cols, want %d", pq, len(cols), len(want))
		}
		for i, c := range cols {
			if !want[c] {
				t.Fatalf("row %d: unexpected column %d", pq, c)
			}
			if i > 0 && cols[i-1] >= c {
				t.Fatalf("row %d: columns unsorted: %v", pq, cols)
			}
			in[[2]int{pq, c}] = true
		}
	}
	for e := range in {
		if !in[[2]int{e[1], e[0]}] {
			t.Fatalf("pattern not structurally symmetric at %v", e)
		}
	}
}

// TestSparseAugmentedPatternRecovers: when pruning keeps off-cross entries
// the Jacobian leaves the plan's pattern for a private augmented one, and
// the recovery on it still converges to the truth.
func TestSparseAugmentedPatternRecovers(t *testing.T) {
	truth, z, err := gen.Measurements(gen.Config{
		Rows: 6, Cols: 6, Seed: 4,
		Anomalies: []gen.Anomaly{{CenterI: 2, CenterJ: 3, RadiusI: 1.5, RadiusJ: 1.5, Factor: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := grid.New(6, 6)
	opts := RecoverOptions{Method: MethodSparse, SparseDropTol: 1e-3}
	st := newSparseStepper(a, opts)
	fwd, err := circuit.NewSolver(a, truth)
	if err != nil {
		t.Fatal(err)
	}
	st.prepare(context.Background(), fwd, truth, mat.NewVector(36))
	if !st.augmented || st.j.NNZ() <= st.plan.NNZ() {
		t.Fatalf("pattern not augmented (nnz %d, plan %d)", st.j.NNZ(), st.plan.NNZ())
	}
	res, err := Recover(context.Background(), a, z, opts)
	if err != nil {
		t.Fatalf("%v (residual %g)", err, res.Residual)
	}
	if rel := res.R.MaxAbsDiff(truth) / truth.Max(); rel > 1e-4 {
		t.Fatalf("augmented recovery is %g from the truth", rel)
	}
}

// TestSparseCGItersFlatInN pins the Jacobi-preconditioned CG's iteration
// count per Gauss-Newton step as roughly flat in the array size: one seeded
// medium (4,000–6,000 kΩ background, one anomaly, as the benchmark's
// recover workload draws them) at 16×16, 32×32 and 48×48. CG counts are a
// pure function of the inputs at any pool width, so the bound is exact, not
// wall-clock.
func TestSparseCGItersFlatInN(t *testing.T) {
	perStep := map[int]float64{}
	for _, n := range []int{16, 32, 48} {
		f := float64(n)
		truth, z, err := gen.Measurements(gen.Config{
			Rows: n, Cols: n, Seed: 1,
			BackgroundMin: 4000, BackgroundMax: 6000,
			Anomalies: []gen.Anomaly{{CenterI: 0.4 * f, CenterJ: 0.6 * f, RadiusI: 0.15 * f, RadiusJ: 0.12 * f, Factor: 4}},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Recover(context.Background(), grid.New(n, n), z, RecoverOptions{Method: MethodSparse, Tol: 1e-8})
		if err != nil {
			t.Fatalf("%dx%d: %v (residual %g)", n, n, err, res.Residual)
		}
		if res.Residual > 1e-8 {
			t.Fatalf("%dx%d: residual %g, want ≤ 1e-8", n, n, res.Residual)
		}
		if rel := res.R.MaxAbsDiff(truth) / truth.Max(); rel > 1e-4 {
			t.Fatalf("%dx%d: recovered field is %g from the truth", n, n, rel)
		}
		perStep[n] = float64(res.CGIterations) / float64(res.Iterations)
		t.Logf("%dx%d: %d GN iterations, %d CG iterations (%.1f per step)", n, n, res.Iterations, res.CGIterations, perStep[n])
	}
	if perStep[48] > 1.5*perStep[16] {
		t.Fatalf("CG iterations per Gauss-Newton step grew from %.1f at 16×16 to %.1f at 48×48, want ≤ 1.5×", perStep[16], perStep[48])
	}
}

// TestSparseRefreshAllocationsFlat: the forward solver's pair view is what
// the pattern scan and the Jacobian refresh read, so neither allocates per
// pair. At 32×32 (1,024 pairs, a pure cross pattern) building the pattern
// and refreshing the linearization each make a handful of allocations —
// buffers, the escaping pool closures — where one per pair would be
// thousands.
func TestSparseRefreshAllocationsFlat(t *testing.T) {
	prev := mat.Parallelism(1)
	defer mat.Parallelism(prev)
	const size = 32
	a := grid.NewSquare(size)
	r := grid.UniformField(size, size, 5000)
	r.Set(size/2, size/3, 15000)
	fwd, err := circuit.NewSolver(a, r)
	if err != nil {
		t.Fatal(err)
	}
	opts := RecoverOptions{Method: MethodSparse, Plan: NewPlan(size, size)}
	build := testing.AllocsPerRun(3, func() {
		newSparseStepper(a, opts).buildPattern(context.Background(), fwd, r)
	})
	st := newSparseStepper(a, opts)
	res := mat.NewVector(size * size)
	refresh := testing.AllocsPerRun(3, func() {
		st.prepare(context.Background(), fwd, r, res)
	})
	if st.augmented {
		t.Fatal("pattern augmented, want the pure cross")
	}
	if build > 32 || refresh > 8 {
		t.Fatalf("%d pairs: pattern build makes %v allocations, refresh %v; want a per-call constant", size*size, build, refresh)
	}
}

func TestResolveMethod(t *testing.T) {
	// Explicit choices pass through untouched.
	if got := ResolveMethod(100, 100, MethodDense); got != MethodDense {
		t.Fatalf("explicit dense resolved to %v", got)
	}
	if got := ResolveMethod(2, 2, MethodSparse); got != MethodSparse {
		t.Fatalf("explicit sparse resolved to %v", got)
	}
	// Auto must sit on the measured crossover (~13 on squares, calibrated
	// against BENCH_recover.json where sparse already wins at 16×16): dense
	// for small arrays, sparse from the paper's 16×16 reference up
	// (docs/performance.md).
	for _, n := range []int{4, 8, 12} {
		if got := ResolveMethod(n, n, MethodAuto); got != MethodDense {
			t.Fatalf("auto at %dx%d = %v, want dense", n, n, got)
		}
	}
	for _, n := range []int{16, 32, 64, 128} {
		if got := ResolveMethod(n, n, MethodAuto); got != MethodSparse {
			t.Fatalf("auto at %dx%d = %v, want sparse", n, n, got)
		}
	}
}

func TestParseMethod(t *testing.T) {
	for s, want := range map[string]Method{"": MethodAuto, "auto": MethodAuto, "dense": MethodDense, "sparse": MethodSparse} {
		got, err := ParseMethod(s)
		if err != nil || got != want {
			t.Fatalf("ParseMethod(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMethod("qr"); err == nil {
		t.Fatal("expected error for unknown method")
	}
	if MethodSparse.String() != "sparse" || MethodDense.String() != "dense" || MethodAuto.String() != "auto" {
		t.Fatal("method spellings drifted from the flag values")
	}
}

// TestRecoverSparseMatchesDenseExact is the golden equivalence test: in
// keep-all mode (SparseDropTol < 0) the sparse path solves the same damped
// normal equations as dense Cholesky, just iteratively, so the two backends
// must take the same Levenberg-Marquardt trajectory — same iteration count,
// same residual, recovered fields identical to 1e-9 — at every kernel pool
// width.
func TestRecoverSparseMatchesDenseExact(t *testing.T) {
	truth, z, err := gen.Measurements(gen.Config{
		Rows: 16, Cols: 16, Seed: 7,
		Anomalies: []gen.Anomaly{{CenterI: 5, CenterJ: 11, RadiusI: 2, RadiusJ: 2, Factor: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := grid.New(16, 16)
	dense, err := Recover(context.Background(), a, z, RecoverOptions{Method: MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Method != MethodDense {
		t.Fatalf("dense result reports method %v", dense.Method)
	}
	for _, workers := range []int{1, 3} {
		prev := mat.Parallelism(workers)
		sparse, err := Recover(context.Background(), a, z, RecoverOptions{
			Method: MethodSparse, SparseDropTol: -1, SparseCGTol: 1e-13,
		})
		mat.Parallelism(prev)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sparse.Method != MethodSparse || sparse.NNZ == 0 || sparse.CGIterations == 0 {
			t.Fatalf("workers=%d: sparse result counters: %+v", workers, sparse)
		}
		if sparse.Iterations != dense.Iterations {
			t.Fatalf("workers=%d: sparse took %d LM iterations, dense %d",
				workers, sparse.Iterations, dense.Iterations)
		}
		if math.Abs(sparse.Residual-dense.Residual) > 1e-8 {
			t.Fatalf("workers=%d: residuals diverge: sparse %g, dense %g",
				workers, sparse.Residual, dense.Residual)
		}
		if rel := sparse.R.MaxAbsDiff(dense.R) / truth.Max(); rel > 1e-9 {
			t.Fatalf("workers=%d: recovered fields differ by %g relative", workers, rel)
		}
	}
}

// TestRecoverSparseDefaultDropTol: with the production pruning threshold the
// trajectory may differ from dense, but the recovery must still converge to
// the measurements and resolve the anomaly — pruning can cost iterations,
// never correctness (the accept test uses exact forward residuals).
func TestRecoverSparseDefaultDropTol(t *testing.T) {
	truth, z, err := gen.Measurements(gen.Config{
		Rows: 8, Cols: 8, Seed: 3,
		Anomalies: []gen.Anomaly{{CenterI: 4, CenterJ: 4, RadiusI: 1.2, RadiusJ: 1.2, Factor: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(context.Background(), grid.New(8, 8), z, RecoverOptions{Method: MethodSparse, Tol: 1e-9})
	if err != nil {
		t.Fatalf("%v (residual %g)", err, res.Residual)
	}
	want, got := truth.At(4, 4), res.R.At(4, 4)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("anomaly cell recovered as %g, truth %g", got, want)
	}
}

// TestRecoverSparseRectangular: the cross pattern and plan indexing must
// hold off the square diagonal too.
func TestRecoverSparseRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, n := 4, 7
	truth := grid.NewField(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			truth.Set(i, j, 2000+6000*rng.Float64())
		}
	}
	a := grid.New(m, n)
	z, err := circuit.MeasureAll(a, truth)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(context.Background(), a, z, RecoverOptions{Method: MethodSparse})
	if err != nil {
		t.Fatalf("%v (residual %g)", err, res.Residual)
	}
	if rel := res.R.MaxAbsDiff(truth) / truth.Max(); rel > 1e-3 {
		t.Fatalf("relative error %g", rel)
	}
}

// TestRecoverSparseWithSharedPlan: a caller-supplied plan (the serve cache
// path) must give the identical result, and a wrong-geometry plan must be
// ignored rather than corrupt the solve.
func TestRecoverSparseWithSharedPlan(t *testing.T) {
	_, z, err := gen.Measurements(gen.Config{Rows: 6, Cols: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a := grid.New(6, 6)
	base, err := Recover(context.Background(), a, z, RecoverOptions{Method: MethodSparse})
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(6, 6)
	for name, p := range map[string]*Plan{"shared": plan, "wrong-geometry": NewPlan(3, 3)} {
		res, err := Recover(context.Background(), a, z, RecoverOptions{Method: MethodSparse, Plan: p})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.R.MaxAbsDiff(base.R) != 0 {
			t.Fatalf("%s: plan changed the result", name)
		}
	}
}

// countdownCtx reports cancellation after a fixed number of Err checks —
// a deterministic way to land the cancellation inside an inner CG solve.
type countdownCtx struct {
	context.Context
	calls, limit int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestRecoverSparseCanceledMidCG: cancellation that lands inside an inner
// CG solve must surface as ErrCanceled wrapping the CG's own cancellation
// error, with the best iterate still returned. Sweeping the countdown limit
// guarantees some run dies mid-CG rather than at an outer checkpoint.
func TestRecoverSparseCanceledMidCG(t *testing.T) {
	_, z, err := gen.Measurements(gen.Config{Rows: 5, Cols: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := grid.New(5, 5)
	midCG := false
	for limit := 1; limit < 80; limit++ {
		ctx := &countdownCtx{Context: context.Background(), limit: limit}
		res, err := Recover(ctx, a, z, RecoverOptions{Method: MethodSparse})
		if err == nil {
			break // countdown outlived the recovery; larger limits will too
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("limit %d: err = %v, want ErrCanceled", limit, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("limit %d: err = %v, want to wrap context.Canceled", limit, err)
		}
		if res.R == nil {
			t.Fatalf("limit %d: best iterate missing", limit)
		}
		if strings.Contains(err.Error(), "CG canceled at iteration") {
			midCG = true
		}
	}
	if !midCG {
		t.Fatal("no countdown limit produced a mid-CG cancellation")
	}
}
