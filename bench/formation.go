package main

// formation-write: the paper's measured workload (§V) at 48×48 — form the
// whole joint-constraint system with the fine-grained (PyMP) strategy at
// nproc workers, hash-only, and form it again while writing it to a fresh
// shard directory. kirchhoff, parallel, sched and the file system do the
// work; circuit, solver, sparse and serve are never called after set-up.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"parma"
	"parma/internal/mpi"
	"parma/internal/obs"
)

// formSourceU is the paper's applied voltage.
const formSourceU = 5

// formation is the formation-write input and its oracle.
type formation struct {
	arr   parma.Array
	prob  *parma.Problem
	shard string // parent of the per-op shard directories

	equations  int    // SystemCensus
	serialHash uint64 // order-independent hash of the Single-thread strategy
	bytes      int64  // serialized size, by Form + WriteSystem
}

// setupFormation synthesizes the medium and its Z, builds the problem and
// creates the shard directory cfg.setupReps times, reports the median as
// setup_s, and then computes the oracle (untimed). Without rep it sets up
// once.
func setupFormation(cfg config, rep *report) (*formation, error) {
	var f *formation
	var times []float64
	for i := 0; i < cfg.setupReps && (rep != nil || i == 0); i++ {
		if f != nil {
			os.RemoveAll(f.shard)
		}
		var err error
		d := timeOp(func() { f, err = newFormation(cfg) })
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	if rep != nil {
		rep.set("setup_s", "s", median(times))
	}
	d := timeOp(func() { f.oracle() })
	if rep != nil {
		rep.printf("formation-write oracle: %d equations, %d bytes, serial hash %016x (%.3f s, untimed)",
			f.equations, f.bytes, f.serialHash, d.Seconds())
	}
	return f, nil
}

func newFormation(cfg config) (*formation, error) {
	arr := parma.NewSquareArray(cfg.formN)
	_, z, err := parma.Synthesize(parma.MediumConfig{Rows: cfg.formN, Cols: cfg.formN, Seed: cfg.seed,
		Anomalies: []parma.Anomaly{{
			CenterI: float64(cfg.formN) / 3, CenterJ: float64(cfg.formN) / 2,
			RadiusI: float64(cfg.formN) / 6, RadiusJ: float64(cfg.formN) / 5,
		}}})
	if err != nil {
		return nil, err
	}
	prob, err := parma.NewProblem(arr, z, formSourceU)
	if err != nil {
		return nil, err
	}
	shard, err := os.MkdirTemp(cfg.workdir, "formation-")
	if err != nil {
		return nil, fmt.Errorf("creating the shard directory: %w", err)
	}
	return &formation{arr: arr, prob: prob, shard: shard}, nil
}

// oracle computes the census, the Single-thread hash and the serialized
// size. The size streams pair by pair, so the 300 MB system is never held
// in memory.
func (f *formation) oracle() {
	f.equations = parma.SystemCensus(f.arr).Equations
	f.serialHash = parma.Form(f.prob, parma.Serial{}, parma.FormationOptions{}).Hash
	var eqs []parma.Equation
	f.bytes = 0
	for i := 0; i < f.arr.Rows(); i++ {
		for j := 0; j < f.arr.Cols(); j++ {
			eqs = eqs[:0]
			f.prob.FormPair(i, j, func(e parma.Equation) { eqs = append(eqs, e) })
			n, _ := parma.WriteSystem(io.Discard, eqs) // io.Discard never fails
			f.bytes += n
		}
	}
}

func (f *formation) close() { os.RemoveAll(f.shard) }

// form runs the timed formation op: FineGrained at cfg.workers, hash-only.
func (f *formation) form(cfg config) (parma.FormationResult, time.Duration) {
	var res parma.FormationResult
	d := timeOp(func() {
		res = parma.Form(f.prob, parma.FineGrained{},
			parma.FormationOptions{Workers: cfg.workers, Policy: parma.DynamicChunks})
	})
	return res, d
}

// checkForm compares a formation against the oracle.
func (f *formation) checkForm(res parma.FormationResult) error {
	if res.Count != f.equations {
		return fmt.Errorf("%s formed %d equations, census says %d", res.Strategy, res.Count, f.equations)
	}
	if res.Hash != f.serialHash {
		return fmt.Errorf("%s hash %016x differs from single-thread %016x", res.Strategy, res.Hash, f.serialHash)
	}
	return nil
}

// formWrite runs the timed form-and-write op into a fresh shard directory,
// checks the byte total against the oracle and the shard files on disk,
// and removes the directory.
func (f *formation) formWrite(cfg config) (time.Duration, error) {
	dir, err := os.MkdirTemp(f.shard, "op-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var n int64
	d := timeOp(func() { n, err = parma.WriteEquations(f.prob, dir, cfg.workers) })
	if err != nil {
		return d, err
	}
	if n != f.bytes {
		return d, fmt.Errorf("wrote %d bytes, the oracle says %d", n, f.bytes)
	}
	onDisk, err := dirBytes(dir)
	if err != nil {
		return d, err
	}
	if onDisk != n {
		return d, fmt.Errorf("shard files hold %d bytes, the writer reported %d", onDisk, n)
	}
	return d, nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// runFormationWrite alternates form ops, which carry the census and hash
// checks, with form-write ops, which carry the byte checks and give op_s.
func runFormationWrite(cfg config, rep *report) error {
	f, err := setupFormation(cfg, rep)
	if err != nil {
		return err
	}
	defer f.close()
	phForm, phWrite := rep.phase("form"), rep.phase("form-write")
	var forms, writes []float64
	deadline := time.Now().Add(cfg.budget)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		res, d := f.form(cfg)
		if err := f.checkForm(res); err != nil {
			phForm.wrongAnswer(err)
		} else {
			phForm.ok()
			forms = append(forms, d.Seconds())
		}
		d, err := f.formWrite(cfg)
		if err != nil {
			phWrite.wrongAnswer(err)
			continue
		}
		phWrite.ok()
		writes = append(writes, d.Seconds())
	}
	rep.printf("formation-write: %dx%d, %d equations, %d bytes per write, %d form ops, %d form-write ops",
		cfg.formN, cfg.formN, f.equations, f.bytes, len(forms), len(writes))
	if len(forms) == 0 || len(writes) == 0 {
		return fmt.Errorf("no formation op passed its checks")
	}
	rep.printf("form only: median %.6g s (the form op is the hash and census check; op_s is form and write)", median(forms))
	rep.set("op_s", "s", median(writes))
	return nil
}

// traceFormationWrite reports the kirchhoff, parallel, sched and mpi
// layers.
func traceFormationWrite(cfg config, rep *report) error {
	f, err := setupFormation(cfg, nil)
	if err != nil {
		return err
	}
	defer f.close()
	ph := rep.phase("formation-traced")
	rec := obs.NewRecorder()
	rec.SetSpanCap(0)
	obs.Enable(rec)
	defer obs.Disable()

	rep.set("kirchhoff.equations", "count", float64(f.equations))
	rep.set("kirchhoff.bytes", "count", float64(f.bytes))
	count := 0
	d := timeOp(func() {
		for i := 0; i < f.arr.Rows(); i++ {
			for j := 0; j < f.arr.Cols(); j++ {
				f.prob.FormPair(i, j, func(parma.Equation) { count++ })
			}
		}
	})
	if count != f.equations {
		ph.wrongAnswer(fmt.Errorf("FormPair over every pair gave %d equations, census says %d", count, f.equations))
	} else {
		ph.ok()
	}
	rep.set("kirchhoff.form_serial_ms", "ms", ms(d))

	for _, s := range parma.Strategies() {
		var res parma.FormationResult
		d := timeOp(func() { res = parma.Form(f.prob, s, parma.FormationOptions{Workers: cfg.workers}) })
		ph.check(f.checkForm(res))
		rep.set("parallel.form_ms."+s.Name(), "ms", ms(d))
	}

	// The timed op itself: chunk count and per-worker balance.
	chunks := rec.Registry().Counter("sched/chunks_handed_out")
	startChunks := chunks.Value()
	since := time.Since(rec.Epoch())
	res, _ := f.form(cfg)
	ph.check(f.checkForm(res))
	rep.set("sched.chunks", "count", float64(chunks.Value()-startChunks))
	var workers []float64
	for _, e := range rec.Events() {
		if e.Name == "sched/worker" && e.Start >= since {
			workers = append(workers, ms(e.Dur))
		}
	}
	if len(workers) == 0 {
		return fmt.Errorf("no sched/worker span recorded")
	}
	rep.set("parallel.worker_imbalance", "ratio", sortedCopy(workers)[len(workers)-1]/mean(workers))

	var forms, writes []float64
	for i := 0; i < 3; i++ {
		res, d := f.form(cfg)
		ph.check(f.checkForm(res))
		forms = append(forms, ms(d))
		d, err := f.formWrite(cfg)
		ph.check(err)
		writes = append(writes, ms(d))
	}
	rep.printf("parallel.write_ms base: form %.1f ms, form-write %.1f ms (medians of 3)", median(forms), median(writes))
	rep.set("parallel.write_ms", "ms", median(writes)-median(forms))

	return traceMPIFormation(cfg, f, ph, rep)
}

// traceMPIFormation runs DistributedFormation over cfg.workers in-process
// ranks on the same problem.
func traceMPIFormation(cfg config, f *formation, ph *phase, rep *report) error {
	results := make([]mpi.FormationResult, cfg.workers)
	stats := make([]mpi.CommStats, cfg.workers)
	var errs []error
	d := timeOp(func() {
		errs = mpi.NewWorld(cfg.workers, mpi.CostModel{}).Run(func(c *mpi.Comm) error {
			fr, err := mpi.DistributedFormation(c, f.prob)
			results[c.Rank()], stats[c.Rank()] = fr, c.Stats()
			return err
		})
	})
	if err := mpi.FirstError(errs); err != nil {
		return fmt.Errorf("distributed formation: %w", err)
	}
	var hash uint64
	var sent, msgs int64
	for r := range results {
		hash ^= results[r].LocalHash
		sent += stats[r].BytesSent
		msgs += stats[r].MsgsSent
		if results[r].TotalEquations != f.equations {
			ph.wrongAnswer(fmt.Errorf("rank %d saw %d equations, census says %d", r, results[r].TotalEquations, f.equations))
			continue
		}
		ph.ok()
	}
	if hash != f.serialHash {
		ph.wrongAnswer(fmt.Errorf("distributed hash %016x differs from single-thread %016x", hash, f.serialHash))
	}
	rep.set("mpi.formation_ms", "ms", ms(d))
	rep.set("mpi.bytes_sent", "count", float64(sent))
	rep.set("mpi.messages", "count", float64(msgs))
	return nil
}
