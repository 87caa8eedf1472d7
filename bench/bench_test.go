package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"parma"
	"parma/internal/obs"
	"parma/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.2, 1}, {0.5, 3}, {0.95, 5}, {1, 5}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	// A failed request enters as +Inf and exceeds every limit.
	withFail := []float64{1, 2, 3, math.Inf(1)}
	if got := percentile(withFail, 1); !math.IsInf(got, 1) {
		t.Errorf("max with a failure = %v, want +Inf", got)
	}
	if got := finite(math.Inf(1)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v", got)
	}
}

func TestBeyondRule(t *testing.T) {
	// At least ten samples must lie beyond the reported p95: 200 is the
	// smallest sample that allows it.
	for _, c := range []struct{ n, want int }{{199, 9}, {200, 10}, {288, 14}, {20, 1}} {
		if got := beyond(c.n, 0.95); got != c.want {
			t.Errorf("beyond(%d, 0.95) = %d, want %d", c.n, got, c.want)
		}
	}
	if beyond(200, 0.95) < minBeyond || beyond(199, 0.95) >= minBeyond {
		t.Errorf("the ten-beyond threshold moved")
	}
}

// span builds one synthetic event on a millisecond clock.
func span(name string, trace, id, parent byte, start, dur int) obs.Event {
	e := obs.Event{Name: name, Start: time.Duration(start) * time.Millisecond, Dur: time.Duration(dur) * time.Millisecond}
	if trace != 0 {
		e.Trace[0], e.Span[0] = trace, id
		if parent != 0 {
			e.Parent[0] = parent
		}
	}
	return e
}

func TestSelfTimeArithmetic(t *testing.T) {
	// The solver's shape: newton_iter spans and the stage spans inside
	// them all link to the recovery span; nesting comes from time.
	events := []obs.Event{
		span("recover", 1, 1, 0, 0, 100),
		span("iter", 1, 2, 1, 10, 40),   // [10, 50]
		span("step", 1, 3, 1, 20, 10),   // [20, 30] inside iter 2
		span("jac", 1, 4, 1, 25, 15),    // [25, 40] overlaps step: counted once
		span("iter", 1, 5, 1, 50, 40),   // [50, 90]
		span("step", 1, 6, 1, 60, 20),   // [60, 80] inside iter 5
		span("other", 2, 7, 0, 20, 5),   // another trace: never a child here
		span("untraced", 0, 0, 0, 0, 1), // no trace: a root
	}
	ix := indexSpans(events)
	byName := func(name string) []int { return ix.named(name) }
	iters := byName("iter")
	if len(iters) != 2 {
		t.Fatalf("found %d iter spans", len(iters))
	}
	want := map[int]time.Duration{iters[0]: 20 * time.Millisecond, iters[1]: 20 * time.Millisecond}
	for i, self := range want {
		if got := ix.self(i); got != self {
			t.Errorf("self(%s at %v) = %v, want %v", ix.events[i].Name, ix.events[i].Start, got, self)
		}
	}
	root := byName("recover")[0]
	if got := ix.self(root); got != 20*time.Millisecond {
		t.Errorf("self(recover) = %v, want 20ms (the iters cover 80ms)", got)
	}
	if got := ix.total("step"); got != 30*time.Millisecond {
		t.Errorf("total(step) = %v, want 30ms", got)
	}
	cov := ix.coverage("iter")
	sort.Float64s(cov)
	if len(cov) != 2 || cov[0] != 0.5 || cov[1] != 0.5 {
		t.Errorf("iter coverage = %v, want [0.5 0.5]", cov)
	}
	for _, name := range []string{"other", "untraced"} {
		if i := byName(name)[0]; ix.parent[i] != -1 {
			t.Errorf("%s got a parent", name)
		}
	}
}

// tinyConfig shrinks every workload to seconds-long 8×8 passes.
func tinyConfig(t *testing.T) config {
	cfg := defaultConfig(7, 800*time.Millisecond, t.TempDir())
	cfg.setupReps = 2
	cfg.recoverN, cfg.recoverMedia = 8, 2
	cfg.formN = 8
	cfg.serveSizes = []int{8, 12}
	cfg.servePayloads = 4
	return cfg
}

// benchmarkNames reads the names BENCHMARK.json gives under key.
func benchmarkNames(t *testing.T, key string) []string {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var entries []struct{ Name string }
	if err := json.Unmarshal(b[key], &entries); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	return names
}

type closing struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runTiny(t *testing.T, cfg config, w workload, traced bool) closing {
	t.Helper()
	var out bytes.Buffer
	rep := newReport(&out)
	if err := execute(cfg, w, traced, rep); err != nil {
		t.Fatalf("%s: %v\n%s", w.name, err, out.String())
	}
	if err := rep.finish(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var c closing
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !c.Correct || c.Attempted == 0 || c.Failed != 0 {
		t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, c.Correct, c.Attempted, c.Failed, out.String())
	}
	return c
}

func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	cfg := tinyConfig(t)
	listed := map[string]bool{}
	for _, n := range benchmarkNames(t, "workloads") {
		listed[n] = true
	}
	declared := map[string]bool{}
	for _, n := range benchmarkNames(t, "end_to_end") {
		declared[n] = true
	}
	perLayer := benchmarkNames(t, "per_layer")
	want := map[string][]string{
		"recover-large":   {"setup_s", "op_s"},
		"serve-fleet":     {"setup_s", "serve_p50_ms", "serve_p95_ms", "serve_rps"},
		"formation-write": {"setup_s", "op_s"},
	}
	for _, w := range workloads {
		c := runTiny(t, cfg, w, false)
		for _, n := range want[w.name] {
			if listed[w.name] && !declared[n] {
				t.Errorf("%s reports %s, which BENCHMARK.json does not declare", w.name, n)
			}
			if m, ok := c.Metrics[n]; !ok || m.Value <= 0 {
				t.Errorf("%s: metric %s missing or not positive: %+v", w.name, n, m)
			}
		}
		if len(c.Metrics) != len(want[w.name]) {
			t.Errorf("%s reports %d metrics, want %v", w.name, len(c.Metrics), want[w.name])
		}
		for n := range declared {
			if _, ok := c.Metrics[n]; listed[w.name] && !ok {
				t.Errorf("%s does not report %s, which BENCHMARK.json declares for every workload", w.name, n)
			}
		}
		delete(listed, w.name)
	}
	for n := range listed {
		t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not run", n)
	}
	c := runTiny(t, cfg, workloads[0], true)
	for _, n := range perLayer {
		if _, ok := c.Metrics[n]; !ok {
			t.Errorf("traced run lacks per-layer metric %s", n)
		}
	}
	if len(c.Metrics) != len(perLayer) {
		t.Errorf("traced run reports %d metrics, BENCHMARK.json declares %d", len(c.Metrics), len(perLayer))
	}
}

func TestChecksCatchWrongAnswers(t *testing.T) {
	media, err := synthMedia(3, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := media[0]
	res, err := parma.Recover(m.arr, m.z, recoverOpts())
	if err := checkRecovery(m, res, err); err != nil {
		t.Fatalf("a good recovery failed its check: %v", err)
	}
	bad := res
	bad.R = res.R.Clone()
	bad.R.Set(2, 3, bad.R.At(2, 3)*1.01)
	if checkRecovery(m, bad, nil) == nil {
		t.Errorf("a perturbed field passed the recovery check")
	}

	cfg := tinyConfig(t)
	f, err := setupFormation(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	good, _ := f.form(cfg)
	if err := f.checkForm(good); err != nil {
		t.Fatalf("a good formation failed its check: %v", err)
	}
	wrong := good
	wrong.Hash ^= 1
	if f.checkForm(wrong) == nil {
		t.Errorf("a wrong hash passed the formation check")
	}
	f.bytes++
	if _, err := f.formWrite(cfg); err == nil {
		t.Errorf("a byte total off by one passed the write check")
	}

	pl, err := makePayloads(5, []int{8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := &pl.measures[0][0]
	o := outcome{p: p, meas: &serve.MeasureResponse{Z: rowsOf(p.want), Cache: "hit"}}
	if err := verify(&o); err != nil {
		t.Fatalf("an exact measure reply failed its check: %v", err)
	}
	z := p.want.Clone()
	z.Set(0, 0, z.At(0, 0)*(1+1e-6))
	o.meas.Z = rowsOf(z)
	if verify(&o) == nil {
		t.Errorf("a measure reply 1e-6 off passed the 1e-9 check")
	}
	o.meas = &serve.MeasureResponse{Z: rowsOf(p.want), Cache: "stale", Degraded: true}
	if verify(&o) == nil {
		t.Errorf("a degraded measure reply passed")
	}
	rp := &pl.recovers[0][0]
	o = outcome{p: rp, rec: &serve.RecoverResponse{R: rowsOf(p.want), Residual: 1e-9}}
	if verify(&o) == nil {
		t.Errorf("a recover reply whose field does not reproduce Z passed")
	}
}
