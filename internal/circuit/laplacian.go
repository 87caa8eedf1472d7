// Package circuit implements the physical forward model of an MEA: nodal
// analysis on the wire-level graph. Given a resistance field R it computes
// the pairwise end-to-end resistances Z_ij and the internal wire potentials
// (the paper's U, Ua, Ub), plus the analytic sensitivities ∂Z/∂R used by the
// recovery solver.
//
// This package is the reproduction's stand-in for the paper's wet-lab
// measurements: a physically correct simulator that produces exactly the
// data Parma consumes, with ground truth available for verification.
package circuit

import (
	"fmt"

	"parma/internal/grid"
	"parma/internal/mat"
	"parma/internal/obs"
	"parma/internal/sparse"
)

// Laplacian assembles the conductance Laplacian of the wire-level graph:
// one node per wire (horizontal wires first, then vertical), and for every
// resistor R_ij a conductance g = 1/R_ij between wire i and wire m+j.
// All resistances must be positive and finite.
func Laplacian(a grid.Array, r *grid.Field) *sparse.CSR {
	checkField(a, r)
	nNodes := a.Rows() + a.Cols()
	b := sparse.NewBuilder(nNodes, nNodes)
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			g := conductance(r, i, j)
			u, v := i, a.Rows()+j
			b.Add(u, u, g)
			b.Add(v, v, g)
			b.Add(u, v, -g)
			b.Add(v, u, -g)
		}
	}
	return b.Build()
}

func checkField(a grid.Array, r *grid.Field) {
	if r.Rows() != a.Rows() || r.Cols() != a.Cols() {
		panic(fmt.Sprintf("circuit: field %dx%d does not match array %dx%d",
			r.Rows(), r.Cols(), a.Rows(), a.Cols()))
	}
}

// conductance returns 1/R_ij, panicking on a non-positive resistance.
func conductance(r *grid.Field, i, j int) float64 {
	res := r.At(i, j)
	if res <= 0 {
		panic(fmt.Sprintf("circuit: non-positive resistance %g at (%d,%d)", res, i, j))
	}
	return 1 / res
}

// stamp adds a conductance g between nodes u and v of the dense Laplacian.
func stamp(lap *mat.Matrix, u, v int, g float64) {
	lap.Add(u, u, g)
	lap.Add(v, v, g)
	lap.Add(u, v, -g)
	lap.Add(v, u, -g)
}

// greenChunkFlops is the work one pool chunk of column solves should carry
// in greens: small networks build G in one direct call, large ones hand
// out a column at a time.
const greenChunkFlops = 1 << 15

// greens returns the Green's function of a connected network whose dense
// Laplacian lap (k×k) is grounded at node 0: a k×k row-major G whose row
// and column 0 are zero and whose trailing block is the inverse of the
// grounded Laplacian. The grounded Laplacian is SPD, so it is factored once
// by Cholesky; the k−1 column solves are independent and fan out across the
// kernel pool, each solving in place in its own row of G (the inverse is
// symmetric, so row c holds column c). The result is then symmetrized
// exactly — G[u][v] == G[v][u] bit for bit — which lets every query read a
// pair's potentials as two contiguous rows. Each entry is computed by one
// worker in a fixed order, so G is identical at any pool width.
func greens(lap *mat.Matrix) ([]float64, error) {
	k := lap.Rows()
	reduced := mat.NewMatrix(k-1, k-1)
	for i := 1; i < k; i++ {
		copy(reduced.Row(i-1), lap.Row(i)[1:])
	}
	chol, err := mat.CholeskyInPlace(reduced)
	if err != nil {
		return nil, err
	}
	g := make([]float64, k*k)
	grain := 1 + greenChunkFlops/(2*k*k)
	mat.ParallelFor(k-1, grain, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			x := g[(c+1)*k+1 : (c+2)*k]
			x[c] = 1
			chol.SolveTo(x, x)
		}
	})
	for i := 1; i < k; i++ {
		for j := i + 1; j < k; j++ {
			avg := 0.5 * (g[i*k+j] + g[j*k+i])
			g[i*k+j], g[j*k+i] = avg, avg
		}
	}
	return g, nil
}

// Solver answers every forward query against one resistance field from the
// field's Green's function G: the inverse of the grounded Laplacian (node
// 0, the first horizontal wire, is the ground), embedded in an N×N matrix,
// N = m+n, whose ground row and column are zero. The potentials of a unit
// current injected at wire u and extracted at wire v are
// L⁻¹(e_u − e_v) = G[·][u] − G[·][v], so after one O(N³) construction (a
// Cholesky factorization and N−1 column solves) an effective resistance is
//
//	Z_uv = G_uu + G_vv − G_uv − G_vu
//
// and a pair's potentials, sensitivities and Jacobian row are lookups into
// two rows of G: measuring the whole array does no per-pair solve. G is N²
// floats, about the size of one dense factorization of the grounded
// Laplacian, which is what a cached Solver costs.
//
// A Solver is immutable after NewSolver and safe for concurrent use: every
// query method only reads G. The serving layer's factorization cache
// (internal/serve) hands one *Solver to many workers at once and relies on
// this; TestSolverConcurrentReaders pins the contract under -race.
type Solver struct {
	arr grid.Array
	n   int       // total wire nodes N
	g   []float64 // N×N Green's function, row-major, exactly symmetric
}

// NewSolver prepares a solver for the array with the given resistance field.
func NewSolver(a grid.Array, r *grid.Field) (*Solver, error) {
	checkField(a, r)
	m := a.Rows()
	n := m + a.Cols()
	lap := mat.NewMatrix(n, n)
	for i := 0; i < m; i++ {
		for j := 0; j < a.Cols(); j++ {
			stamp(lap, i, m+j, conductance(r, i, j))
		}
	}
	g, err := greens(lap)
	if err != nil {
		return nil, fmt.Errorf("circuit: grounded Laplacian is singular (disconnected array?): %w", err)
	}
	return &Solver{arr: a, n: n, g: g}, nil
}

// PairView is a zero-copy view of one wire pair's unit-current potentials:
// two rows of the solver's G, so building and reading it allocates
// nothing. It is the primitive under EffectiveResistance, Sensitivity and
// the recovery solver's Jacobian refresh and pattern scan, which evaluate
// exactly the drops they need instead of materializing a vector per pair.
type PairView struct {
	gu, gv []float64 // G rows of the injection and extraction wires
	m      int       // horizontal wire count: vertical wire l is node m+l
}

// Pair returns the potential view for a unit current injected at
// horizontal wire i and extracted at vertical wire j.
func (s *Solver) Pair(i, j int) PairView {
	u := s.arr.WireVertex(true, i)
	v := s.arr.WireVertex(false, j)
	return PairView{gu: s.g[u*s.n : (u+1)*s.n], gv: s.g[v*s.n : (v+1)*s.n], m: s.arr.Rows()}
}

// Potential returns the potential of wire node k (horizontal wires first,
// the grid.Array.WireVertex layout), with the ground node at 0.
func (p PairView) Potential(k int) float64 { return p.gu[k] - p.gv[k] }

// Drop returns the potential drop across resistor (k, l), from horizontal
// wire k to vertical wire l. Drop(i, j) of pair (i, j)'s own view is Z_ij.
func (p PairView) Drop(k, l int) float64 {
	return (p.gu[k] - p.gv[k]) - (p.gu[p.m+l] - p.gv[p.m+l])
}

// Potentials returns the full node-potential vector x (one entry per wire,
// horizontal wires first) for a unit current injected at horizontal wire i
// and extracted at vertical wire j, with the ground node at 0: the drop
// across resistor (k, l) is x[WireVertex(true,k)] − x[WireVertex(false,l)].
// It allocates the vector; Pair is the allocation-free view of the same
// values.
func (s *Solver) Potentials(i, j int) mat.Vector {
	p := s.Pair(i, j)
	x := mat.NewVector(s.n)
	for k := range x {
		x[k] = p.Potential(k)
	}
	return x
}

// EffectiveResistance returns Z between horizontal wire i and vertical wire
// j: the potential difference produced by a unit current injection,
// G_uu + G_vv − G_uv − G_vu for wires u = i and v = m+j.
func (s *Solver) EffectiveResistance(i, j int) float64 {
	return s.Pair(i, j).Drop(i, j)
}

// PairSolution carries the complete electrical state for one wire pair under
// an applied source voltage: exactly the quantities in the paper's §IV-A
// equations.
type PairSolution struct {
	I, J int     // the wire pair
	U    float64 // applied end-to-end voltage U_ij
	Z    float64 // measured effective resistance Z_ij
	// Ua[k'] is the potential of vertical wire k (k ≠ J), indexed by the
	// paper's k' = k for k < J (0-based) and k' = k−1 for k > J.
	Ua []float64
	// Ub[m'] is the potential of horizontal wire m (m ≠ I), likewise.
	Ub []float64
}

// SolvePair computes the pair solution for (i, j) with source voltage srcU:
// wire i is held at potential srcU and wire j at 0; every other wire floats
// at its Kirchhoff equilibrium, yielding the paper's Ua and Ub unknowns.
func (s *Solver) SolvePair(i, j int, srcU float64) PairSolution {
	x := s.Pair(i, j)
	z := x.Drop(i, j)
	// Scale and shift so x[u] = srcU, x[v] = 0.
	scale := srcU / z
	offset := x.Potential(s.arr.WireVertex(false, j))
	m, n := s.arr.Rows(), s.arr.Cols()
	ps := PairSolution{I: i, J: j, U: srcU, Z: z,
		Ua: make([]float64, 0, n-1), Ub: make([]float64, 0, m-1)}
	for k := 0; k < n; k++ {
		if k == j {
			continue
		}
		ps.Ua = append(ps.Ua, (x.Potential(s.arr.WireVertex(false, k))-offset)*scale)
	}
	for mm := 0; mm < m; mm++ {
		if mm == i {
			continue
		}
		ps.Ub = append(ps.Ub, (x.Potential(s.arr.WireVertex(true, mm))-offset)*scale)
	}
	return ps
}

// MeasureAll returns the full Z matrix — the synthetic equivalent of the
// wet lab's pairwise measurements: one Green's-function build (whose column
// solves fan out across the shared kernel pool) and then four lookups per
// pair. The result is identical at any pool width.
func MeasureAll(a grid.Array, r *grid.Field) (*grid.Field, error) {
	sp := obs.StartSpan("circuit/measure_all")
	s, err := NewSolver(a, r)
	if err != nil {
		sp.End()
		return nil, err
	}
	z := grid.NewFieldFor(a)
	n := a.Cols()
	zv := z.Values()
	for pq := range zv {
		zv[pq] = s.EffectiveResistance(pq/n, pq%n)
	}
	if sp.Active() {
		sp.End(obs.I("pairs", len(zv)))
	}
	return z, nil
}

// Sensitivity returns ∂Z_pq/∂R_kl for every resistor as a field, using the
// adjoint identity: with x = L⁺(e_p − e_q),
//
//	∂Z/∂g_kl = −(x_k − x_l)²  and  g = 1/R  ⇒  ∂Z/∂R_kl = ((x_k − x_l)/R_kl)².
//
// The pair's potentials give the gradient with respect to all m·n
// resistors, which is what makes Gauss-Newton recovery tractable.
func (s *Solver) Sensitivity(p, q int, r *grid.Field) *grid.Field {
	checkField(s.arr, r)
	x := s.Pair(p, q)
	out := grid.NewFieldFor(s.arr)
	for i := 0; i < s.arr.Rows(); i++ {
		for j := 0; j < s.arr.Cols(); j++ {
			ratio := x.Drop(i, j) / r.At(i, j)
			out.Set(i, j, ratio*ratio)
		}
	}
	return out
}
