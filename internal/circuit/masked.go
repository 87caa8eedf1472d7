package circuit

import (
	"fmt"
	"math"

	"parma/internal/grid"
	"parma/internal/mat"
)

// MaskedSolver measures a defective MEA: resistors masked out contribute
// no conductance, and the wire graph may fall into several electrical
// components. Pairs in different components are unmeasurable and report
// +Inf. Each component is grounded at its first wire and gets its own
// Green's function, built by the same helper as Solver's, so an effective
// resistance is four lookups into its component's G.
//
// Like Solver, a MaskedSolver is immutable after construction and safe for
// concurrent readers: queries only read the per-component Green's functions.
type MaskedSolver struct {
	arr    grid.Array
	labels []int       // component label per wire node
	local  []int       // wire node -> index within its component (0 is the component's ground)
	size   []int       // node count per component
	greens [][]float64 // per-component size×size G; nil for an isolated wire
}

// NewMaskedSolver prepares a solver for the array with the given
// resistance field and mask.
func NewMaskedSolver(a grid.Array, r *grid.Field, mask *grid.Mask) (*MaskedSolver, error) {
	checkField(a, r)
	g := a.MaskedWireGraph(mask)
	labels, count := g.Components()
	n := a.Rows() + a.Cols()

	// Number each component's nodes in wire order; its first node, local
	// index 0, is its ground.
	local := make([]int, n)
	size := make([]int, count)
	for node := 0; node < n; node++ {
		comp := labels[node]
		local[node] = size[comp]
		size[comp]++
	}

	// Assemble per-component Laplacians densely.
	laps := make([]*mat.Matrix, count)
	for comp := range laps {
		laps[comp] = mat.NewMatrix(size[comp], size[comp])
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if !mask.Active(i, j) {
				continue
			}
			u, v := a.WireVertex(true, i), a.WireVertex(false, j)
			stamp(laps[labels[u]], local[u], local[v], conductance(r, i, j))
		}
	}

	s := &MaskedSolver{arr: a, labels: labels, local: local, size: size, greens: make([][]float64, count)}
	for comp, lap := range laps {
		if size[comp] < 2 {
			continue // singleton component: an isolated wire
		}
		gc, err := greens(lap)
		if err != nil {
			return nil, fmt.Errorf("circuit: component %d Laplacian singular: %w", comp, err)
		}
		s.greens[comp] = gc
	}
	return s, nil
}

// EffectiveResistance returns Z between horizontal wire i and vertical
// wire j, or +Inf when the masked device cannot connect them.
func (s *MaskedSolver) EffectiveResistance(i, j int) float64 {
	u := s.arr.WireVertex(true, i)
	v := s.arr.WireVertex(false, j)
	comp := s.labels[u]
	if s.labels[v] != comp || s.greens[comp] == nil {
		return math.Inf(1)
	}
	k, g := s.size[comp], s.greens[comp]
	iu, iv := s.local[u], s.local[v]
	gu, gv := g[iu*k:(iu+1)*k], g[iv*k:(iv+1)*k]
	return (gu[iu] - gv[iu]) - (gu[iv] - gv[iv])
}

// MeasureAllMasked returns the pairwise Z field of a defective device,
// with +Inf marking unmeasurable pairs.
func MeasureAllMasked(a grid.Array, r *grid.Field, mask *grid.Mask) (*grid.Field, error) {
	s, err := NewMaskedSolver(a, r, mask)
	if err != nil {
		return nil, err
	}
	z := grid.NewFieldFor(a)
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			z.Set(i, j, s.EffectiveResistance(i, j))
		}
	}
	return z, nil
}
