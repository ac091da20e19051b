package main

import (
	"errors"
	"testing"
)

func TestTailPermille(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {10, 0}, {19, 0},
		{20, 500}, // p50 leaves exactly 10 beyond
		{39, 500}, // p75 would leave 9.75
		{40, 750},
		{100, 900}, // p90
		{199, 900}, // p95 would leave 9.95
		{200, 950},
		{999, 950},  // no p99 from fewer than 1000 samples
		{1000, 990}, // p99 leaves exactly 10
		{9999, 990},
		{10000, 999},
	}
	for _, c := range cases {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{20, 57, 100, 150, 999, 1000, 2500} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: tail must sort
		}
		v, pct := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%g = %g leaves %d samples beyond, want >= 10", n, pct, v, beyond)
		}
		if p := tailPermille(n); float64(p)/10 != pct {
			t.Errorf("n=%d: tail reported p%g, want p%g", n, pct, float64(p)/10)
		}
	}
	if v, pct := tail(make([]float64, 19)); v != 0 || pct != 0 {
		t.Errorf("19 samples: got p%g = %g, want no tail", pct, v)
	}
}

func TestMedian(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestTally(t *testing.T) {
	var tl tally
	if !tl.check(nil) {
		t.Error("a nil error must pass")
	}
	if tl.check(errors.New("wrong bytes")) {
		t.Error("an error must fail")
	}
	tl.check(nil)
	if tl.attempted != 3 || tl.failed != 1 || len(tl.errs) != 1 {
		t.Errorf("tally = %d attempted, %d failed, %d messages; want 3, 1, 1", tl.attempted, tl.failed, len(tl.errs))
	}
	for i := 0; i < 50; i++ {
		tl.check(errors.New("again"))
	}
	if tl.failed != 51 || len(tl.errs) != 20 {
		t.Errorf("after 50 more failures: %d failed, %d messages kept; want 51, 20", tl.failed, len(tl.errs))
	}
}

// A run whose operations all failed has no timing: the workload
// reports errMissing instead of a metric.
func TestFailedOperationsProduceNoTiming(t *testing.T) {
	e := &env{metrics: map[string]metric{}}
	var ops []float64
	for i := 0; i < 3; i++ {
		if e.check(mismatch("doc", i, -1)) {
			ops = append(ops, 1)
		}
	}
	if len(ops) != 0 || e.failed != 3 || e.attempted != 3 {
		t.Fatalf("ops=%v failed=%d attempted=%d", ops, e.failed, e.attempted)
	}
	if err := checkMetrics(e.metrics, endToEnd); err == nil {
		t.Error("a run without metrics must not pass the metric check")
	}
}
