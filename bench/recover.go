package main

// recover-large: sparse Gauss-Newton recovery of a seeded set of 48×48
// media, each with an anomaly, to tol 1e-8 at full kernel width. circuit,
// sparse and solver do almost all the work; serve, fleet, kirchhoff and
// parallel do none.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"parma"
	"parma/internal/circuit"
	"parma/internal/grid"
	"parma/internal/mat"
	"parma/internal/obs"
	"parma/internal/solver"
	"parma/internal/sparse"
)

const (
	recoverTol = 1e-8
	// recoverMaxRelErr bounds the recovered field's largest relative
	// error against the ground truth. Z is noise-free, so a recovery that
	// meets recoverTol lands within about 1e-6 of the truth.
	recoverMaxRelErr = 1e-4
)

// medium is one recover-large input: the ground-truth field and its
// measured Z.
type medium struct {
	arr   parma.Array
	truth *parma.Field
	z     *parma.Field
}

// randomMedium draws one medium configuration. The background spans
// 4,000–6,000 kΩ rather than the paper's 2,000–11,000 kΩ: over the wide
// range the iteration count of a 48×48 recovery jumps between 6, 7 and 13
// from seed to seed, which makes op_s a draw of the seed rather than a
// measure of the solver (see README.md). The anomaly's place, size and
// strength vary with the draw.
func randomMedium(rng *rand.Rand, n int) parma.MediumConfig {
	f := float64(n)
	return parma.MediumConfig{
		Rows: n, Cols: n, Seed: rng.Int63(),
		BackgroundMin: 4000, BackgroundMax: 6000,
		Anomalies: []parma.Anomaly{{
			CenterI: f * (0.25 + 0.5*rng.Float64()), CenterJ: f * (0.25 + 0.5*rng.Float64()),
			RadiusI: f * (0.1 + 0.1*rng.Float64()), RadiusJ: f * (0.1 + 0.1*rng.Float64()),
			Factor: 3 + 2*rng.Float64(),
		}},
	}
}

// synthMedia builds the seeded media set and measures each medium's Z.
func synthMedia(seed int64, n, count int) ([]medium, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]medium, count)
	for k := range out {
		arr := parma.NewSquareArray(n)
		truth := parma.SynthesizeMedium(randomMedium(rng, n))
		z, err := parma.Measure(arr, truth)
		if err != nil {
			return nil, fmt.Errorf("measuring medium %d: %w", k, err)
		}
		out[k] = medium{arr: arr, truth: truth, z: z}
	}
	return out, nil
}

// setupMedia synthesizes the media cfg.setupReps times and reports the
// median as setup_s.
func setupMedia(cfg config, rep *report) ([]medium, error) {
	var media []medium
	var times []float64
	for i := 0; i < cfg.setupReps; i++ {
		var err error
		d := timeOp(func() { media, err = synthMedia(cfg.seed, cfg.recoverN, cfg.recoverMedia) })
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	rep.set("setup_s", "s", median(times))
	return media, nil
}

func recoverOpts() parma.RecoverOptions {
	return parma.RecoverOptions{Tol: recoverTol, Method: solver.MethodSparse}
}

// recover runs one timed recovery of m and checks it.
func (m medium) recover() (parma.RecoverResult, time.Duration, error) {
	var res parma.RecoverResult
	var err error
	d := timeOp(func() { res, err = parma.RecoverContext(context.Background(), m.arr, m.z, recoverOpts()) })
	return res, d, checkRecovery(m, res, err)
}

// checkRecovery is the recover-large oracle: the returned field, pushed
// through an independent forward measurement, reproduces Z to tolerance,
// and it matches the ground truth within recoverMaxRelErr.
func checkRecovery(m medium, res parma.RecoverResult, err error) error {
	if err != nil {
		return err
	}
	if res.Residual > recoverTol {
		return fmt.Errorf("reported residual %g above tol %g", res.Residual, recoverTol)
	}
	z, err := parma.Measure(m.arr, res.R)
	if err != nil {
		return fmt.Errorf("re-measuring the recovered field: %w", err)
	}
	if r := relResidual(z, m.z); r > recoverTol*(1+1e-6) {
		return fmt.Errorf("re-measured residual %g above tol %g", r, recoverTol)
	}
	if e := maxRelErr(res.R, m.truth); e > recoverMaxRelErr {
		return fmt.Errorf("recovered field is %g from the truth (bound %g)", e, recoverMaxRelErr)
	}
	return nil
}

// relResidual is ‖got − want‖₂ / ‖want‖₂.
func relResidual(got, want *parma.Field) float64 {
	var num, den float64
	gv, wv := got.Values(), want.Values()
	for i := range wv {
		d := gv[i] - wv[i]
		num += d * d
		den += wv[i] * wv[i]
	}
	return math.Sqrt(num / den)
}

// maxRelErr is the largest |got − want| / |want| over the entries.
func maxRelErr(got, want *parma.Field) float64 {
	worst := 0.0
	gv, wv := got.Values(), want.Values()
	for i := range wv {
		if e := math.Abs(gv[i]-wv[i]) / math.Abs(wv[i]); e > worst || math.IsNaN(e) {
			worst = e
		}
	}
	return worst
}

func runRecoverLarge(cfg config, rep *report) error {
	media, err := setupMedia(cfg, rep)
	if err != nil {
		return err
	}
	ph := rep.phase("recover")
	var times []float64
	iters := map[int]int{} // Gauss-Newton iterations → recoveries
	deadline := time.Now().Add(cfg.budget)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		res, d, err := media[i%len(media)].recover()
		if err != nil {
			ph.wrongAnswer(err)
			continue
		}
		ph.ok()
		times = append(times, d.Seconds())
		iters[res.Iterations]++
	}
	rep.printf("recover-large: %d recoveries of %d media at %dx%d; Gauss-Newton iterations → recoveries: %v",
		len(times), len(media), cfg.recoverN, cfg.recoverN, iters)
	if len(times) == 0 {
		return fmt.Errorf("no recovery passed its checks")
	}
	rep.set("op_s", "s", median(times))
	return nil
}

// traceRecoverLarge reports the circuit, solver, sparse and mat layers on
// the first medium of the set.
func traceRecoverLarge(cfg config, rep *report) error {
	media, err := synthMedia(cfg.seed, cfg.recoverN, cfg.recoverMedia)
	if err != nil {
		return err
	}
	m := media[0]
	ph := rep.phase("recover-traced")
	recoverOnce := func() (parma.RecoverResult, time.Duration, error) {
		res, d, err := m.recover()
		ph.check(err)
		return res, d, err
	}

	// Untraced at full width: the base of the tracing overhead and of the
	// speed-up, and the allocation count.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, untraced, err := recoverOnce()
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	rep.set("solver.alloc_mb", "MB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))

	rec := obs.NewRecorder()
	rec.SetSpanCap(0)
	obs.Enable(rec)
	res, traced, err := recoverOnce()
	obs.Disable()
	if err != nil {
		return err
	}
	ix := indexSpans(rec.Events())
	iters := ix.named("solver/newton_iter")
	var iterSelf time.Duration
	for _, i := range iters {
		iterSelf += ix.self(i)
	}
	rep.set("solver.newton_iters", "count", float64(res.Iterations))
	rep.set("solver.damping_trials", "count", float64(len(ix.named("solver/sparse_step"))))
	rep.set("solver.pattern_ms", "ms", ms(ix.total("solver/sparse_pattern")))
	rep.set("solver.jacobian_ms", "ms", ms(ix.total("solver/jacobian_sparse")))
	rep.set("solver.step_ms", "ms", ms(ix.total("solver/sparse_step")))
	rep.set("solver.iter_self_ms", "ms", ms(iterSelf))
	rep.set("sparse.cg_iters", "count", float64(res.CGIterations))
	rep.set("sparse.nnz", "count", float64(res.NNZ))
	rep.set("sparse.flops", "count", float64(rec.Registry().Counter("sparse/flops").Value()))
	rep.set("circuit.factor_ms", "ms", ms(res.FactorTime))
	rep.printf("recover-large traced: %.3f s, %d newton_iter spans covering %.1f ms, self %.1f ms",
		traced.Seconds(), len(iters), ms(ix.total("solver/newton_iter")), ms(iterSelf))
	printCoverage(rep, "solver/newton_iter", ix.coverage("solver/newton_iter"))

	// The kernel pool at width 1 against full width: alternating runs,
	// medians compared.
	full := []float64{untraced.Seconds()}
	if runtime.GOMAXPROCS(0) > 1 {
		var serial []float64
		for i := 0; i < 3; i++ {
			_, d, err := recoverOnce()
			if err != nil {
				return err
			}
			full = append(full, d.Seconds())
			prev := mat.Parallelism(1)
			_, d, err = recoverOnce()
			mat.Parallelism(prev)
			if err != nil {
				return err
			}
			serial = append(serial, d.Seconds())
		}
		rep.printf("mat speed-up base: width 1 %.3f s (median of %d), width %d %.3f s (median of %d)",
			median(serial), len(serial), kernelWidth(), median(full), len(full))
		rep.set("mat.speedup", "ratio", median(serial)/median(full))
	} else {
		rep.printf("mat speed-up: not reported, GOMAXPROCS is 1")
	}
	rep.printf("tracing overhead base: untraced median %.3f s over %d runs, traced %.3f s", median(full), len(full), traced.Seconds())
	rep.set("obs.trace_overhead", "ratio", traced.Seconds()/median(full))

	return traceLayerKernels(m, rep)
}

// traceLayerKernels times the forward model and the sparse kernels on the
// medium's truth field from outside, median of five calls each.
func traceLayerKernels(m medium, rep *report) error {
	const reps = 5
	n := m.arr.Cols()
	var fwd, meas []float64
	var s *circuit.Solver
	for i := 0; i < reps; i++ {
		var err error
		d := timeOp(func() {
			s, err = circuit.NewSolver(m.arr, m.truth)
			if err != nil {
				return
			}
			zv := make([]float64, m.arr.Pairs())
			mat.ParallelFor(len(zv), 4, func(lo, hi int) {
				for pq := lo; pq < hi; pq++ {
					zv[pq] = s.EffectiveResistance(pq/n, pq%n)
				}
			})
		})
		if err != nil {
			return fmt.Errorf("forward solve: %w", err)
		}
		fwd = append(fwd, ms(d))
		d = timeOp(func() { _, err = parma.Measure(m.arr, m.truth) })
		if err != nil {
			return err
		}
		meas = append(meas, ms(d))
	}
	rep.set("circuit.forward_residual_ms", "ms", median(fwd))
	rep.set("circuit.measure_all_ms", "ms", median(meas))

	j := crossJacobian(m.arr, s, m.truth)
	jt, perm := j.TransposePlan()
	sparse.Gather(jt.Values(), j.Values(), perm)
	rowPtr, colIdx := crossPattern(m.arr.Rows(), n)
	normal := sparse.FromPattern(j.Rows(), j.Rows(), rowPtr, colIdx)
	diag := make(mat.Vector, j.Rows())
	var normalT, icT []float64
	for i := 0; i < reps; i++ {
		normalT = append(normalT, ms(timeOp(func() { sparse.NormalInto(normal, jt) })))
		normal.DiagonalTo(diag)
		for k := range diag {
			diag[k] *= 1e-3 // the solver's first Levenberg shift
		}
		var err error
		d := timeOp(func() {
			var ic *sparse.IC0
			if ic, err = sparse.NewIC0(normal); err == nil {
				err = ic.Refresh(normal, diag)
			}
		})
		if err != nil {
			return fmt.Errorf("IC(0) on the cross-pattern normal matrix: %w", err)
		}
		icT = append(icT, ms(d))
	}
	rep.set("sparse.normal_ms", "ms", median(normalT))
	rep.set("sparse.ic0_ms", "ms", median(icT))
	return nil
}

// crossPattern is the sparse path's structural Jacobian pattern: resistor
// (k, l) moves pair (p, q)'s effective resistance strongly only when it
// shares a wire with it, k = p or l = q. Columns are sorted per row.
func crossPattern(m, n int) (rowPtr, colIdx []int) {
	rowPtr = make([]int, m*n+1)
	for pq := 0; pq < m*n; pq++ {
		p, q := pq/n, pq%n
		for kl := 0; kl < m*n; kl++ {
			if kl/n == p || kl%n == q {
				colIdx = append(colIdx, kl)
			}
		}
		rowPtr[pq+1] = len(colIdx)
	}
	return rowPtr, colIdx
}

// crossJacobian fills the log-space Jacobian J[pq, kl] = ∂Z_pq/∂R_kl · R_kl
// on the cross pattern from the forward solver's pair potentials.
func crossJacobian(arr grid.Array, s *circuit.Solver, r *grid.Field) *sparse.CSR {
	m, n := arr.Rows(), arr.Cols()
	rowPtr, colIdx := crossPattern(m, n)
	j := sparse.FromPattern(m*n, m*n, rowPtr, colIdx)
	for pq := 0; pq < m*n; pq++ {
		x := s.Potentials(pq/n, pq%n)
		cols, vals := j.RowVals(pq)
		for k, kl := range cols {
			drop := x[arr.WireVertex(true, kl/n)] - x[arr.WireVertex(false, kl%n)]
			ratio := drop / r.At(kl/n, kl%n)
			vals[k] = ratio * ratio * r.At(kl/n, kl%n)
		}
	}
	return j
}
