package main

import (
	"testing"

	"authradio/internal/core"
	"authradio/internal/experiment"
)

// The traced driver only observes: on a small matrix grid — one
// instance of each of the paper's protocols and the epidemic baseline,
// clean and under attack — every cell's result equals the untraced
// one, and the counters add up.
func TestTracedDriverPassThrough(t *testing.T) {
	o := experiment.Options{Seed: 7}
	mixes, err := experiment.ParseMixes("clean,liar15,jam10b32")
	if err != nil {
		t.Fatal(err)
	}
	instances := []string{"Epidemic", "MultiPathRB", "NeighborWatchRB"}
	scens, _ := experiment.MatrixGrid(o, instances, mixes)
	var tr layerTrace
	for _, s := range scens {
		want := s.Run(0)
		got, err := tracedRun(s, 0, &tr, core.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: traced %+v, untraced %+v", s.Name, got, want)
		}
	}
	t.Logf("%d cells: %d rounds, %d wakes, %d transmissions", len(scens), tr.Rounds, tr.Wakes, tr.Txs)
	if len(scens) != 9 || tr.Rounds < 10000 || tr.Wakes < tr.Rounds || tr.PhaseA <= 0 || tr.PhaseB <= 0 || tr.Run < tr.PhaseA+tr.PhaseB {
		t.Errorf("implausible trace: %+v", tr)
	}
}

// On the dense fleet the traced engine makes the same transmissions,
// device by device, and counts every wake and transmission.
func TestTracedDriverDense(t *testing.T) {
	const n, rounds = 1024, 5
	u := experiment.DenseRoundEngine(n, false, 3)
	v := experiment.DenseRoundEngine(n, false, 3)
	d := traceEngine(v)
	experiment.DenseRounds(u, rounds)
	experiment.DenseRounds(v, rounds)
	for id := 0; id < n; id++ {
		if u.TxCount(id) != v.TxCount(id) {
			t.Fatalf("device %d: traced %d tx, untraced %d", id, v.TxCount(id), u.TxCount(id))
		}
	}
	// The fleet first wakes in round 1, so rounds-1 rounds resolve.
	if d.rounds != rounds-1 || d.wakes != d.rounds*n || d.txs != d.rounds*n/8 || d.txs != v.TotalTx() {
		t.Errorf("counters: %d rounds, %d wakes, %d txs; engine %d txs", d.rounds, d.wakes, d.txs, v.TotalTx())
	}
}
