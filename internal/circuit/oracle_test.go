package circuit_test

import (
	"math/rand"
	"testing"

	"parma/internal/circuit"
	"parma/internal/grid"
	"parma/internal/kirchhoff"
)

// TestGroundTruthSatisfiesJointConstraints checks the forward layer against
// the paper's own equations: the pair potentials the Green's-function
// solver yields (kirchhoff.GroundTruthState) leave every joint-constraint
// equation formed from the solver's Z at zero residual, on random positive
// fields over square, rectangular and single-wire arrays. Residuals are
// flows (volts per kilohm), so they are compared against the smallest pair
// current U/Z_max.
func TestGroundTruthSatisfiesJointConstraints(t *testing.T) {
	const srcU = 5.0
	for _, dims := range [][2]int{{1, 1}, {1, 5}, {5, 1}, {2, 3}, {4, 4}, {6, 3}} {
		m, n := dims[0], dims[1]
		rng := rand.New(rand.NewSource(int64(m*10 + n)))
		a := grid.New(m, n)
		r := grid.NewField(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				r.Set(i, j, 2000+9000*rng.Float64())
			}
		}
		z, err := circuit.MeasureAll(a, r)
		if err != nil {
			t.Fatal(err)
		}
		p, err := kirchhoff.NewProblem(a, z, srcU)
		if err != nil {
			t.Fatal(err)
		}
		st, err := kirchhoff.GroundTruthState(a, r, srcU)
		if err != nil {
			t.Fatal(err)
		}
		if res, scale := kirchhoff.MaxResidual(p.FormAll(), st), srcU/z.Max(); res > 1e-12*scale {
			t.Fatalf("%dx%d: max joint-constraint residual %g at the ground truth (flow scale %g)", m, n, res, scale)
		}
	}
}
