package main

import (
	"fmt"
	"slices"
	"time"
)

// tally counts operations attempted and failed. Only an operation that
// passed its check contributes a timing.
type tally struct {
	attempted, failed int
	errs              []string
}

// check records one attempted operation; err != nil marks it failed.
// It returns whether the operation passed.
func (t *tally) check(err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 20 {
			t.errs = append(t.errs, err.Error())
		}
		return false
	}
	return true
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf returns the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

// tailLadder holds the percentiles a tail may be reported at, in
// tenths of a percent, highest first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPermille returns the highest percentile of tailLadder (in tenths
// of a percent) that leaves at least ten of n samples beyond it, or 0
// when no percentile does: p99 needs 1000 samples, p90 needs 100.
func tailPermille(n int) int {
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			return p
		}
	}
	return 0
}

// tail returns the nearest-rank value at the highest percentile with
// at least ten samples beyond it, and that percentile in percent; both
// are 0 when there are too few samples for any.
func tail(xs []float64) (value, pct float64) {
	p := tailPermille(len(xs))
	if p == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := (p*len(s) + 999) / 1000 // ceil(p/1000 * n), 1-based
	return s[rank-1], float64(p) / 10
}

// maxOf returns the largest of xs, 0 for none.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e3 }

// mismatch is the error of an output that differs from its reference.
func mismatch(what string, got, want any) error {
	return fmt.Errorf("%s: got %v, want %v", what, got, want)
}
