package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestChunkSweepTradeoff: under a profile with substantial per-chunk
// overhead, chunk=1 must be slower than a moderate chunk, and a chunk
// larger than the whole iteration space degenerates toward single-worker
// behaviour (bounded below by serial/1).
func TestChunkSweepTradeoff(t *testing.T) {
	tbl := chunkTable(countedTiming(t, 12, 2, 200*time.Nanosecond), PythonProfile, 8, []int{1, 64, 1 << 30})
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("output:\n%s", sb.String())
	}
	parse := func(line string) float64 {
		v, err := strconv.ParseFloat(strings.Split(line, ",")[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	tiny, moderate, huge := parse(lines[1]), parse(lines[2]), parse(lines[3])
	if moderate >= tiny {
		t.Fatalf("moderate chunk (%g) not faster than chunk=1 (%g) despite handout overhead", moderate, tiny)
	}
	if moderate >= huge {
		t.Fatalf("moderate chunk (%g) not faster than one-giant-chunk (%g)", moderate, huge)
	}
}
