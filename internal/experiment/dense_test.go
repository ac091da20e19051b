package experiment

import "testing"

// TestDenseRoundSteadyStateAllocs pins the scale property the 100k+
// benchmarks depend on: once scratch is warm, resolving a dense round
// allocates nothing per device. The wake wheel recycles drained slot
// arrays, so a fleet waking every round reuses two arrays instead of
// growing a fresh slot each round; steady-state rounds measure zero
// allocations, and the budget leaves room for a stray runtime
// allocation, far below one per hundred devices.
func TestDenseRoundSteadyStateAllocs(t *testing.T) {
	e := DenseRoundEngine(4096, false, 7)
	DenseRounds(e, 8) // warm up index storage, wheel, scratch
	n := testing.AllocsPerRun(10, func() { DenseRounds(e, 1) })
	if n > 2 {
		t.Fatalf("steady-state dense round allocates %v times, want <= 2 (must not scale with devices)", n)
	}
}

// TestDenseEnginesBatched asserts the dense fleets register as block
// devices, so the scale benchmarks measure the batched sweeps.
func TestDenseEnginesBatched(t *testing.T) {
	for name, e := range map[string]interface{ Batched() bool }{
		"friis": DenseRoundEngine(512, false, 7),
		"disk":  DenseRoundDiskEngine(512, false),
	} {
		if !e.Batched() {
			t.Fatalf("%s dense engine is not batched", name)
		}
	}
}
