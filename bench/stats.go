package main

import (
	"math"
	"sort"
	"time"

	"parma/internal/obs"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// that percentile to mean anything.
const minBeyond = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample with at least q·n samples at or below it. Failed operations enter
// as +Inf, so they count as exceeding every limit.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond is how many of n samples lie strictly above the nearest-rank
// q-quantile's position.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// mean is the arithmetic mean.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// spanIndex groups a recorder's events by trace so the nesting of each
// trace can be rebuilt.
type spanIndex struct {
	events []obs.Event
	parent []int // effective parent index, -1 for roots
}

// end is an event's end offset.
func end(e obs.Event) time.Duration { return e.Start + e.Dur }

// indexSpans rebuilds the span tree of every trace. The program links each
// traced span to its Parent, but spans opened one after another on the same
// context (solver/newton_iter and the solver/jacobian_sparse or
// solver/sparse_step spans inside it) all link to the enclosing request or
// recovery span. So a span's effective parent is the innermost span of the
// same trace that is its linked Parent or a descendant of it and whose
// interval contains the span's. Untraced spans stay roots.
func indexSpans(events []obs.Event) *spanIndex {
	ix := &spanIndex{events: append([]obs.Event(nil), events...)}
	ev := ix.events
	// Containers first: earlier start, then longer duration.
	sort.SliceStable(ev, func(i, j int) bool {
		if ev[i].Start != ev[j].Start {
			return ev[i].Start < ev[j].Start
		}
		return ev[i].Dur > ev[j].Dur
	})
	ix.parent = make([]int, len(ev))
	byTrace := map[obs.TraceID][]int{}
	bySpan := map[obs.SpanID]int{}
	for i, e := range ev {
		ix.parent[i] = -1
		if e.Trace.IsZero() {
			continue
		}
		byTrace[e.Trace] = append(byTrace[e.Trace], i)
		bySpan[e.Span] = i
	}
	for i, e := range ev {
		if e.Trace.IsZero() || e.Parent.IsZero() {
			continue
		}
		linked, ok := bySpan[e.Parent]
		if !ok {
			continue // parent span ended outside the recorder (another process)
		}
		best := linked
		for _, c := range byTrace[e.Trace] {
			if c >= i { // sorted containers come first
				break
			}
			ce := ev[c]
			if ce.Start > e.Start || end(ce) < end(e) || ce.Dur >= ev[best].Dur {
				continue
			}
			if ix.descends(c, linked) {
				best = c
			}
		}
		ix.parent[i] = best
	}
	return ix
}

// descends reports whether span i is anc or lies below it.
func (ix *spanIndex) descends(i, anc int) bool {
	for ; i >= 0; i = ix.parent[i] {
		if i == anc {
			return true
		}
	}
	return false
}

// covered is how much of span i's interval its children cover, counting
// overlapping children once.
func (ix *spanIndex) covered(i int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var kids []iv
	p := ix.events[i]
	for c, par := range ix.parent {
		if par != i {
			continue
		}
		lo, hi := ix.events[c].Start, end(ix.events[c])
		if lo < p.Start {
			lo = p.Start
		}
		if hi > end(p) {
			hi = end(p)
		}
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, k := range kids {
		switch {
		case !open:
			curLo, curHi, open = k.lo, k.hi, true
		case k.lo <= curHi:
			if k.hi > curHi {
				curHi = k.hi
			}
		default:
			total += curHi - curLo
			curLo, curHi = k.lo, k.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// self is span i's duration not covered by its children.
func (ix *spanIndex) self(i int) time.Duration { return ix.events[i].Dur - ix.covered(i) }

// named returns the indices of the spans called name.
func (ix *spanIndex) named(name string) []int {
	var out []int
	for i, e := range ix.events {
		if e.Name == name {
			out = append(out, i)
		}
	}
	return out
}

// total sums the durations of the spans called name.
func (ix *spanIndex) total(name string) time.Duration {
	var d time.Duration
	for _, i := range ix.named(name) {
		d += ix.events[i].Dur
	}
	return d
}

// coverage is, for each span called name, the share of its time that its
// children cover.
func (ix *spanIndex) coverage(name string) []float64 {
	var out []float64
	for _, i := range ix.named(name) {
		if d := ix.events[i].Dur; d > 0 {
			out = append(out, float64(ix.covered(i))/float64(d))
		}
	}
	return out
}

// printCoverage prints the child-coverage distribution of the spans called
// name. It is a report, not a gate.
func printCoverage(rep *report, name string, cov []float64) {
	if len(cov) == 0 {
		rep.printf("coverage %s: no spans", name)
		return
	}
	s := sortedCopy(cov)
	rep.printf("coverage %s: spans=%d min=%.3f median=%.3f mean=%.3f (share of each span its child spans cover)",
		name, len(s), s[0], median(s), mean(s))
}
