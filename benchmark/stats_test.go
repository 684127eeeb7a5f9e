package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, 1, 1, 100}, 1},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a number that looks measured")
	}
}

// The tail is a p90 only when ten samples lie beyond it; below that it
// is the median and says so.
func TestTailTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		want  float64
		label string
	}{
		{5, 3, "p50"},
		{99, 50, "p50"}, // rank 90 leaves 9 beyond
		{100, 90, "p90"},
		{104, 94, "p90"},
		{240, 216, "p90"},
	} {
		got, label := tail(seq(c.n))
		if got != c.want || label != c.label {
			t.Errorf("tail of 1..%d = %v (%s), want %v (%s)", c.n, got, label, c.want, c.label)
		}
	}
}

// quartileSpread must be the number Python's
// statistics.quantiles(xs, n=4) gives the driver.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{seq(10), (8.25 - 2.75) / 5.5},
		{seq(5), (4.5 - 1.5) / 3},
		{[]float64{10, 10, 10, 10}, 0},
		{[]float64{1, 2}, (2.25 - 0.75) / 1.5}, // the exclusive method extrapolates on tiny samples
		{[]float64{7}, 0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := func(centre float64) []float64 {
		return []float64{centre * 0.99, centre, centre * 1.01, centre, centre * 0.995, centre * 1.005}
	}
	noisy := []float64{80, 100, 120, 90, 110, 130, 70}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		bound float64
		want  string
	}{
		{"same", steady(10), steady(10), true, 0.10, verdictWithin},
		{"slower within bound", steady(10), steady(10.8), true, 0.10, verdictWithin},
		{"slower beyond bound", steady(10), steady(11.5), true, 0.10, verdictRegressed},
		{"faster", steady(10), steady(7), true, 0.10, verdictWithin},
		{"throughput dropped", steady(10), steady(8.5), false, 0.10, verdictRegressed},
		{"throughput rose", steady(10), steady(12), false, 0.10, verdictWithin},
		{"noise wider than bound", noisy, noisy, true, 0.10, verdictUnresolved},
		{"noisy but every run better", noisy, steady(50), true, 0.10, verdictWithin},
		{"exact metric moved 2%", []float64{500, 500, 500}, []float64{510, 510, 510}, true, 0.01, verdictRegressed},
	} {
		if _, got := verdict(c.a, c.b, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func ivl(id, parent int, a, b int) span {
	return span{ID: id, Parent: parent, Op: 1, Start: time.Duration(a), End: time.Duration(b)}
}

// Self time is the span minus the union of its children: concurrent
// children count once, children sticking out of the parent are
// clipped, and grandchildren do not count against the grandparent.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		ivl(1, 0, 0, 100),  // op
		ivl(2, 1, 10, 40),  // stage
		ivl(3, 1, 30, 60),  // overlaps 2 by 10
		ivl(4, 1, 90, 120), // sticks out by 20
		ivl(5, 2, 10, 20),  // child of 2, not of 1
		ivl(6, 2, 15, 35),  // overlaps 5
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 100 - (50 + 10), // children cover [10,60] and [90,100]
		2: 30 - 25,         // children cover [10,35]
		3: 30,
		4: 30,
		5: 10,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestBudgetAddsUp(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 7, Layer: layerOp, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Op: 7, Layer: layerCore, Name: "fine", Start: 10, End: 600},
		{ID: 3, Parent: 2, Op: 7, Layer: layerOpt, Start: 20, End: 300},
		{ID: 4, Parent: 2, Op: 7, Layer: layerOpt, Start: 200, End: 590},
		{ID: 5, Parent: 1, Op: 7, Layer: layerCore, Name: "inspect", Start: 600, End: 990},
		{ID: 6, Op: 8, Layer: layerOp, Start: 0, End: 5000}, // another op: ignored
	}
	b := budgetOf(spans, 7)
	if b.wall != 1000 || b.stage["fine"] != 590 || b.stage["inspect"] != 390 {
		t.Fatalf("budget %+v", b)
	}
	if b.unaccounted != 1000-590-390 {
		t.Errorf("unaccounted = %d, want 20", b.unaccounted)
	}
	if b.coreSelf != 590-570 { // solver spans cover [20,590]
		t.Errorf("core self = %d, want 20", b.coreSelf)
	}
	if b.solveBusy != 280+390 {
		t.Errorf("solver busy = %d, want 670 (concurrent solves add up)", b.solveBusy)
	}
}
