package main

import (
	"encoding/json"
	"strings"
	"testing"

	"authradio/internal/core"
)

// warmBody renders a warm POST /sweep body with the lines in the given
// cell order, as the server streams them in completion order.
func warmBody(t *testing.T, order []int, edit func(*cellLine)) []byte {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, i := range order {
		l := cellLine{I: i, Label: "cell", ID: "id", Key: "key", Cached: true, Result: core.Result{EndRound: uint64(100 + i)}}
		if edit != nil {
			edit(&l)
		}
		enc.Encode(l)
	}
	enc.Encode(doneLine{Done: true, Cells: serveCells, Hits: serveCells})
	return []byte(b.String())
}

func TestWarmResponseChecks(t *testing.T) {
	fwd := make([]int, serveCells)
	rev := make([]int, serveCells)
	for i := range fwd {
		fwd[i], rev[i] = i, serveCells-1-i
	}
	cold, err := parseSweep(warmBody(t, fwd, func(l *cellLine) { l.Cached = false }))
	if err != nil {
		t.Fatal(err)
	}
	s := &serveSession{cold: cold}
	first := warmBody(t, fwd, nil)
	if err := s.verifyWarm(first); err != nil {
		t.Fatalf("a correct warm response failed: %v", err)
	}
	if sortedLines(warmBody(t, rev, nil)) != sortedLines(first) {
		t.Error("the same lines in another completion order must compare equal")
	}
	bad := map[string][]byte{
		"changed result": warmBody(t, rev, func(l *cellLine) {
			if l.I == 7 {
				l.Result.Complete++
			}
		}),
		"not from the cache": warmBody(t, rev, func(l *cellLine) { l.Cached = l.I != 3 }),
		"missing cell":       warmBody(t, fwd[1:], nil),
	}
	for name, body := range bad {
		if sortedLines(body) == sortedLines(first) {
			t.Errorf("%s: compares equal to the first warm response", name)
		}
		if err := s.verifyWarm(body); err == nil {
			t.Errorf("%s: passed the line-by-line check", name)
		}
	}
	executed := strings.Replace(string(first), `"executed":0`, `"executed":1`, 1)
	if err := s.verifyWarm([]byte(executed)); err == nil {
		t.Error("a trailer reporting an executed cell passed")
	}
}
