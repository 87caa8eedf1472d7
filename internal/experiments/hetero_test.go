package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// countedTiming is the task timing of the n×n formation workload with each
// task's cost counted, not measured: its equation count × perEq. Tests that
// compare simulated makespans drive the simulators with it, so the result
// is a pure function of the workload, not of how busy the host is.
func countedTiming(t *testing.T, n int, seed int64, perEq time.Duration) *TaskTiming {
	t.Helper()
	p, err := BuildProblem(n, seed+int64(n))
	if err != nil {
		t.Fatal(err)
	}
	tt := MeasureTasks(p)
	tt.Total = 0
	for task, eqs := range tt.Eqs {
		tt.Cost[task] = time.Duration(eqs) * perEq
		tt.Total += tt.Cost[task]
	}
	return tt
}

// TestHeterogeneousWeightingWins: on a heterogeneous cluster the weighted
// partition must beat the uniform one by a factor approaching the speed
// ratio (the slow ranks pin the uniform makespan).
func TestHeterogeneousWeightingWins(t *testing.T) {
	tbl, err := heteroTable(countedTiming(t, 24, 1, 200*time.Nanosecond), []int{8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("output:\n%s", sb.String())
	}
	cells := strings.Split(lines[1], ",")
	uniform, err := strconv.ParseFloat(cells[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := strconv.ParseFloat(cells[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	if weighted >= uniform {
		t.Fatalf("weighted %g not faster than uniform %g", weighted, uniform)
	}
	// With a 4x speed gap, enough work to dwarf the startup floor, and
	// alternating fast/slow ranks, the gain should comfortably exceed 1.6x.
	if uniform/weighted < 1.6 {
		t.Fatalf("gain %g too small (uniform %g, weighted %g)", uniform/weighted, uniform, weighted)
	}
}

func TestHeterogeneousDefaults(t *testing.T) {
	tbl, err := Heterogeneous(HeterogeneousConfig{N: 10, Ranks: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tbl.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "uniform_s") {
		t.Fatalf("missing header:\n%s", sb.String())
	}
}
