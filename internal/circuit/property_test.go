package circuit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parma/internal/grid"
	"parma/internal/mat"
)

// TestTransposeReciprocity: transposing the resistance field of an m x n
// array (making it n x m) transposes the Z matrix — a symmetry the forward
// model must respect because the underlying network is identical with the
// roles of horizontal and vertical wires exchanged.
func TestTransposeReciprocity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := randomGeometry(rng)
		r := grid.NewField(m, n)
		rt := grid.NewField(n, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				v := 1000 + 9000*rng.Float64()
				r.Set(i, j, v)
				rt.Set(j, i, v)
			}
		}
		z, err := MeasureAll(grid.New(m, n), r)
		if err != nil {
			return false
		}
		zt, err := MeasureAll(grid.New(n, m), rt)
		if err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(z.At(i, j)-zt.At(j, i)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestScaleInvariance: multiplying every resistance by c multiplies every
// effective resistance by c, on square, rectangular and single-wire arrays.
func TestScaleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := randomGeometry(rng)
		a := grid.New(m, n)
		r := grid.NewField(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				r.Set(i, j, 500+5000*rng.Float64())
			}
		}
		const c = 3.7
		scaled := r.Clone()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				scaled.Set(i, j, r.At(i, j)*c)
			}
		}
		z, err := MeasureAll(a, r)
		if err != nil {
			return false
		}
		zs, err := MeasureAll(a, scaled)
		if err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(zs.At(i, j)-c*z.At(i, j)) > 1e-12*c*z.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// randomGeometry draws an m×n array with 1 ≤ m, n ≤ 6 that is a single row
// or a single column one time in three, so the degenerate 1×n and n×1
// networks (every side branch a dead end) are drawn as often as the rest.
func randomGeometry(rng *rand.Rand) (m, n int) {
	m, n = 1+rng.Intn(6), 1+rng.Intn(6)
	switch rng.Intn(6) {
	case 0:
		m = 1
	case 1:
		n = 1
	}
	return m, n
}

// luReference is the per-pair forward model the Green's-function solver
// replaced, kept here as its oracle: factor the grounded Laplacian by
// pivoted LU and run one solve per wire pair. It returns the pair's node
// potentials with the ground (node 0) at zero.
type luReference struct {
	lu *mat.LU
	n  int
}

func newLUReference(t *testing.T, a grid.Array, r *grid.Field) luReference {
	t.Helper()
	lap := Laplacian(a, r).Dense()
	n := lap.Rows()
	grounded := mat.NewMatrix(n-1, n-1)
	for i := 1; i < n; i++ {
		for j := 1; j < n; j++ {
			grounded.Set(i-1, j-1, lap.At(i, j))
		}
	}
	lu, err := mat.Factorize(grounded)
	if err != nil {
		t.Fatal(err)
	}
	return luReference{lu: lu, n: n}
}

func (ref luReference) potentials(u, v int) mat.Vector {
	rhs := mat.NewVector(ref.n - 1)
	if u != 0 {
		rhs[u-1] = 1
	}
	if v != 0 {
		rhs[v-1] = -1
	}
	return append(mat.Vector{0}, ref.lu.Solve(rhs)...)
}

// TestGreenMatchesPerPairLU is the differential oracle of the forward
// layer: on random positive fields over random geometries, every Green's
// function lookup — Z, the pair potentials, SolvePair's Z, MeasureAll —
// agrees with an independent per-pair LU solve to 1e-12 relative.
func TestGreenMatchesPerPairLU(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, n := randomGeometry(rng)
		a := grid.New(m, n)
		r := randomField(rng, m, n)
		s, err := NewSolver(a, r)
		if err != nil {
			t.Fatal(err)
		}
		z, err := MeasureAll(a, r)
		if err != nil {
			t.Fatal(err)
		}
		ref := newLUReference(t, a, r)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				u, v := a.WireVertex(true, i), a.WireVertex(false, j)
				x := ref.potentials(u, v)
				want := x[u] - x[v]
				for name, got := range map[string]float64{
					"EffectiveResistance": s.EffectiveResistance(i, j),
					"SolvePair":           s.SolvePair(i, j, 5).Z,
					"MeasureAll":          z.At(i, j),
				} {
					if math.Abs(got-want) > 1e-12*want {
						t.Fatalf("%dx%d seed %d: %s(%d,%d) = %.17g, per-pair LU %.17g", m, n, seed, name, i, j, got, want)
					}
				}
				scale := x.NormInf()
				for k, got := range s.Potentials(i, j) {
					if math.Abs(got-x[k]) > 1e-12*scale {
						t.Fatalf("%dx%d seed %d: pair (%d,%d) potential %d = %.17g, per-pair LU %.17g", m, n, seed, i, j, k, got, x[k])
					}
				}
			}
		}
	}
}

// TestGreenInvariants: G is exactly symmetric, zero on the ground row and
// column, positive on the rest of its diagonal (it is the inverse of an SPD
// matrix), and every effective resistance it yields is positive.
func TestGreenInvariants(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, n := randomGeometry(rng)
		a := grid.New(m, n)
		s, err := NewSolver(a, randomField(rng, m, n))
		if err != nil {
			t.Fatal(err)
		}
		N := m + n
		for u := 0; u < N; u++ {
			for v := 0; v < N; v++ {
				if s.g[u*N+v] != s.g[v*N+u] {
					t.Fatalf("%dx%d seed %d: G[%d][%d] = %g but G[%d][%d] = %g", m, n, seed, u, v, s.g[u*N+v], v, u, s.g[v*N+u])
				}
				if (u == 0 || v == 0) && s.g[u*N+v] != 0 {
					t.Fatalf("%dx%d seed %d: ground entry G[%d][%d] = %g", m, n, seed, u, v, s.g[u*N+v])
				}
			}
			if u > 0 && !(s.g[u*N+u] > 0) {
				t.Fatalf("%dx%d seed %d: G[%d][%d] = %g, want > 0", m, n, seed, u, u, s.g[u*N+u])
			}
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if z := s.EffectiveResistance(i, j); !(z > 0) {
					t.Fatalf("%dx%d seed %d: Z(%d,%d) = %g, want > 0", m, n, seed, i, j, z)
				}
			}
		}
	}
}

// TestUniformClosedForm: on a uniform field every pair of the complete
// bipartite wire network has Z = R·(m+n−1)/(m·n), the closed form Recover
// inverts for its initial guess.
func TestUniformClosedForm(t *testing.T) {
	const res = 4700.0
	for _, dims := range [][2]int{{1, 1}, {1, 6}, {6, 1}, {2, 2}, {3, 5}, {5, 3}, {7, 7}, {12, 4}} {
		m, n := dims[0], dims[1]
		z, err := MeasureAll(grid.New(m, n), grid.UniformField(m, n, res))
		if err != nil {
			t.Fatal(err)
		}
		want := res * float64(m+n-1) / float64(m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if got := z.At(i, j); math.Abs(got-want) > 1e-12*want {
					t.Fatalf("%dx%d: Z(%d,%d) = %.17g, closed form %.17g", m, n, i, j, got, want)
				}
			}
		}
	}
}
