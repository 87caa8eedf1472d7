// Command bench is parma's benchmark. One invocation runs one workload for
// a fixed time, checks every output against an independent oracle, prints
// its metrics by name with their units, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the workload's end-to-end ones, measured
// with recording off. With -trace 1 an obs.Recorder is installed and the
// traced pass of every workload runs, the named one first, so one traced
// run reports every per-layer metric. BENCHMARK.json lists recover-large
// and formation-write; serve-fleet runs the same way but is not listed.
// README.md in this directory says why, why each workload exists, and
// which end-to-end metric each layer metric should move.
//
// Build and run it through run.sh from the root of the checkout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"parma/internal/mat"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config sizes one run. defaultConfig holds the benchmark's sizes; the
// self-tests shrink them.
type config struct {
	seed    int64
	budget  time.Duration // how long each workload measures
	workers int           // worker threads, clients and connections: nproc
	workdir string        // scratch space for shard files
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int

	recoverN      int // side of the recover-large media
	recoverMedia  int // media in the recover-large set
	formN         int // side of the formation-write array
	serveSizes    []int
	serveRate     float64 // open-loop offered rate, requests per second
	serveOpenFrac float64 // share of the budget spent in the open loop
	servePayloads int     // distinct recover payloads per geometry
}

func defaultConfig(seed int64, budget time.Duration, workdir string) config {
	return config{
		seed: seed, budget: budget, workers: runtime.NumCPU(), workdir: workdir,
		setupReps:     15,
		recoverN:      48,
		recoverMedia:  4,
		formN:         48,
		serveSizes:    []int{8, 12, 16, 24},
		serveRate:     12,
		serveOpenFrac: 0.8,
		servePayloads: 48,
	}
}

// workload is one named input set: run measures it untraced and reports
// the end-to-end metrics; trace runs its traced pass and reports the
// per-layer metrics of the layers it exercises.
type workload struct {
	name  string
	run   func(cfg config, rep *report) error
	trace func(cfg config, rep *report) error
}

var workloads = []workload{
	{"recover-large", runRecoverLarge, traceRecoverLarge},
	{"serve-fleet", runServeFleet, traceServeFleet},
	{"formation-write", runFormationWrite, traceFormationWrite},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: recover-large, serve-fleet or formation-write")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "how long the workload measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for shard files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need -workload recover-large|serve-fleet|formation-write, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	cfg := defaultConfig(*seed, time.Duration(*seconds)*time.Second, *workdir)
	rep := newReport(stdout)
	stamp(rep, cfg)
	if err := execute(cfg, w, *trace == 1, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.finish(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// execute runs the untraced workload, or in traced mode every workload's
// traced pass with the named one first.
func execute(cfg config, w workload, traced bool, rep *report) error {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return fmt.Errorf("creating the work directory: %w", err)
	}
	if !traced {
		return w.run(cfg, rep)
	}
	order := []workload{w}
	for _, o := range workloads {
		if o.name != w.name {
			order = append(order, o)
		}
	}
	for _, o := range order {
		rep.printf("traced pass: %s", o.name)
		if err := o.trace(cfg, rep); err != nil {
			return fmt.Errorf("traced pass %s: %w", o.name, err)
		}
	}
	return nil
}

// stamp prints the facts a reader needs to compare this run with another.
func stamp(rep *report, cfg config) {
	commit := "unknown (no version control information in the build)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	rep.printf("env: nproc=%d GOMAXPROCS=%d kernel_pool_width=%d cpu=%q go=%s commit=%s seed=%d seconds=%g",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), kernelWidth(), cpuModel(), runtime.Version(),
		commit, cfg.seed, cfg.budget.Seconds())
}

// kernelWidth reads the internal/mat pool width without changing it.
func kernelWidth() int {
	prev := mat.Parallelism(0)
	mat.Parallelism(prev)
	if prev > 0 {
		return prev
	}
	return runtime.GOMAXPROCS(0)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase counts the operations of one measured phase.
type phase struct {
	name      string
	attempted int
	failed    int
	wrong     int // failed a correctness check (as opposed to erroring or being shed)
	firstErr  string
}

// report collects a run's metrics and phase counts and prints them.
type report struct {
	out     io.Writer
	metrics map[string]metric
	phases  []*phase
}

func newReport(out io.Writer) *report {
	return &report{out: out, metrics: map[string]metric{}}
}

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// set records a metric and prints it by name with its unit.
func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.printf("metric %s = %.6g %s", name, v, unit)
}

func (r *report) phase(name string) *phase {
	p := &phase{name: name}
	r.phases = append(r.phases, p)
	return p
}

// ok counts one operation that passed its checks.
func (p *phase) ok() { p.attempted++ }

// fail counts one operation that errored or was refused.
func (p *phase) fail(err error) {
	p.attempted++
	p.failed++
	if p.firstErr == "" {
		p.firstErr = err.Error()
	}
}

// wrongAnswer counts one operation whose output failed a check.
func (p *phase) wrongAnswer(err error) {
	p.fail(err)
	p.wrong++
}

// check counts one operation by its check result.
func (p *phase) check(err error) {
	if err != nil {
		p.wrongAnswer(err)
		return
	}
	p.ok()
}

// finish prints the per-phase counts and the closing JSON line.
func (r *report) finish() error {
	attempted, failed, correct := 0, 0, true
	for _, p := range r.phases {
		r.printf("phase %s: attempted=%d failed=%d wrong=%d", p.name, p.attempted, p.failed, p.wrong)
		if p.firstErr != "" {
			r.printf("phase %s: first failure: %s", p.name, p.firstErr)
		}
		attempted += p.attempted
		failed += p.failed
		if p.wrong > 0 {
			correct = false
		}
	}
	if attempted == 0 {
		return errors.New("no operation was attempted")
	}
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a finite number", n)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(r.out, "%s\n", line)
	return err
}

// timeOp runs fn and returns its wall time.
func timeOp(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
