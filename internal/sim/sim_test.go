package sim

import (
	"slices"
	"sync/atomic"
	"testing"

	"authradio/internal/geom"
	"authradio/internal/radio"
	"authradio/internal/xrand"
)

// scripted is a test device driven by a preprogrammed schedule of steps.
type scripted struct {
	id    int
	pos   geom.Point
	plan  map[uint64]Step // round -> step
	obs   map[uint64]radio.Obs
	wakes []uint64
}

func newScripted(id int, pos geom.Point) *scripted {
	return &scripted{id: id, pos: pos, plan: map[uint64]Step{}, obs: map[uint64]radio.Obs{}}
}

func (s *scripted) ID() int         { return s.id }
func (s *scripted) Pos() geom.Point { return s.pos }

func (s *scripted) Wake(r uint64) Step {
	s.wakes = append(s.wakes, r)
	st, ok := s.plan[r]
	if !ok {
		return Step{Action: Sleep, NextWake: NoWake}
	}
	return st
}

func (s *scripted) Deliver(r uint64, obs radio.Obs) { s.obs[r] = obs }

func newTestEngine() *Engine {
	return NewEngine(&radio.DiskMedium{R: 2, Metric: geom.LInf})
}

func TestTransmitDelivered(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	b := newScripted(1, geom.Point{X: 1, Y: 0})
	a.plan[5] = Step{Action: Transmit, Frame: radio.Frame{Kind: radio.KindData, Payload: 0xAB, PayloadLen: 8}, NextWake: NoWake}
	b.plan[5] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 5)
	e.Add(b, 5)
	end := e.RunUntil(nil, 0, 1000)
	if end != 6 {
		t.Errorf("end round = %d, want 6", end)
	}
	o, ok := b.obs[5]
	if !ok || !o.Decoded || o.Frame.Payload != 0xAB || o.Frame.Src != 0 {
		t.Fatalf("listener obs = %+v", o)
	}
	if e.TxCount(0) != 1 || e.TxCount(1) != 0 || e.TotalTx() != 1 {
		t.Errorf("tx counts wrong: %d %d", e.TxCount(0), e.TxCount(1))
	}
}

func TestCollisionObserved(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	b := newScripted(1, geom.Point{X: 2, Y: 0})
	c := newScripted(2, geom.Point{X: 1, Y: 0})
	a.plan[1] = Step{Action: Transmit, NextWake: NoWake}
	b.plan[1] = Step{Action: Transmit, NextWake: NoWake}
	c.plan[1] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 1)
	e.Add(b, 1)
	e.Add(c, 1)
	e.RunUntil(nil, 0, 100)
	o := c.obs[1]
	if !o.Busy || o.Decoded {
		t.Errorf("middle listener should see collision: %+v", o)
	}
}

func TestTransmitterDoesNotHearItself(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	a.plan[1] = Step{Action: Transmit, NextWake: NoWake}
	e.Add(a, 1)
	e.RunUntil(nil, 0, 100)
	if len(a.obs) != 0 {
		t.Errorf("half-duplex transmitter got deliveries: %v", a.obs)
	}
}

func TestSleeperGetsNothing(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	b := newScripted(1, geom.Point{X: 1, Y: 0})
	a.plan[1] = Step{Action: Transmit, NextWake: NoWake}
	b.plan[1] = Step{Action: Sleep, NextWake: NoWake}
	e.Add(a, 1)
	e.Add(b, 1)
	e.RunUntil(nil, 0, 100)
	if len(b.obs) != 0 {
		t.Errorf("sleeping device observed: %v", b.obs)
	}
}

func TestCalendarSkipsIdleRounds(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	a.plan[10] = Step{Action: Listen, NextWake: 1000000}
	a.plan[1000000] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 10)
	end := e.RunUntil(nil, 0, 2000000)
	if end != 1000001 {
		t.Errorf("end = %d", end)
	}
	if e.ResolvedRounds() != 2 {
		t.Errorf("resolved %d rounds, want 2 (idle rounds must be skipped)", e.ResolvedRounds())
	}
}

func TestRunUntilStopsAtPredicate(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	for r := uint64(1); r <= 100; r++ {
		next := r + 1
		if r == 100 {
			next = NoWake
		}
		a.plan[r] = Step{Action: Listen, NextWake: next}
	}
	e.Add(a, 1)
	end := e.RunUntil(func(r uint64) bool { return r >= 50 }, 0, 1000)
	if end < 50 || end > 52 {
		t.Errorf("stopped at %d, want ~50", end)
	}
}

func TestRunUntilMaxRound(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	a.plan[500] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 500)
	end := e.RunUntil(nil, 0, 100)
	if end != 100 {
		t.Errorf("end = %d, want maxRound 100", end)
	}
	if len(a.wakes) != 0 {
		t.Error("device woke past maxRound")
	}
}

func TestDuplicateIDPanics(t *testing.T) {
	e := newTestEngine()
	e.Add(newScripted(3, geom.Point{}), 1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate id did not panic")
		}
	}()
	e.Add(newScripted(3, geom.Point{}), 1)
}

func TestNonFutureWakePanics(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{})
	a.plan[5] = Step{Action: Sleep, NextWake: 5}
	e.Add(a, 5)
	defer func() {
		if recover() == nil {
			t.Error("non-future wake did not panic")
		}
	}()
	e.RunUntil(nil, 0, 100)
}

func TestDuplicateScheduleSameRoundWakesOnce(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{})
	a.plan[7] = Step{Action: Listen, NextWake: NoWake}
	e.Add(a, 7)
	// Manually double-schedule the same device/round.
	e.schedule(0, 7)
	e.RunUntil(nil, 0, 100)
	if len(a.wakes) != 1 {
		t.Errorf("device woke %d times, want 1", len(a.wakes))
	}
}

func TestOnRoundHook(t *testing.T) {
	e := newTestEngine()
	a := newScripted(0, geom.Point{X: 0, Y: 0})
	a.plan[1] = Step{Action: Transmit, NextWake: NoWake}
	e.Add(a, 1)
	var hookRounds []uint64
	var hookTx int
	e.OnRound = func(r uint64, txs []radio.Tx) {
		hookRounds = append(hookRounds, r)
		hookTx += len(txs)
	}
	e.RunUntil(nil, 0, 100)
	if len(hookRounds) != 1 || hookRounds[0] != 1 || hookTx != 1 {
		t.Errorf("hook saw rounds=%v txs=%d", hookRounds, hookTx)
	}
}

// parallelProbe counts concurrent Wake invocations to verify workers are
// actually used, while staying a correct Device.
type parallelProbe struct {
	scripted
	inFlight *int32
	sawPar   *int32
}

func (p *parallelProbe) Wake(r uint64) Step {
	n := atomic.AddInt32(p.inFlight, 1)
	if n > 1 {
		atomic.StoreInt32(p.sawPar, 1)
	}
	for i := 0; i < 100; i++ { // widen the race window
		_ = i
	}
	atomic.AddInt32(p.inFlight, -1)
	return Step{Action: Listen, NextWake: NoWake}
}

func TestParallelExecutionMatchesSequential(t *testing.T) {
	build := func(workers int) (*Engine, []*scripted) {
		e := NewEngine(&radio.DiskMedium{R: 3, Metric: geom.LInf})
		e.Workers = workers
		devs := make([]*scripted, 64)
		for i := range devs {
			devs[i] = newScripted(i, geom.Point{X: float64(i % 8), Y: float64(i / 8)})
			if i%3 == 0 {
				devs[i].plan[1] = Step{Action: Transmit, Frame: radio.Frame{Payload: uint64(i)}, NextWake: NoWake}
			} else {
				devs[i].plan[1] = Step{Action: Listen, NextWake: NoWake}
			}
			e.Add(devs[i], 1)
		}
		e.RunUntil(nil, 0, 10)
		return e, devs
	}
	_, seq := build(1)
	_, par := build(8)
	for i := range seq {
		if seq[i].obs[1] != par[i].obs[1] {
			t.Fatalf("device %d: sequential obs %+v != parallel obs %+v", i, seq[i].obs[1], par[i].obs[1])
		}
	}
}

func TestParallelActuallyRunsConcurrently(t *testing.T) {
	e := NewEngine(&radio.DiskMedium{R: 1, Metric: geom.LInf})
	e.Workers = 8
	var inFlight, sawPar int32
	for i := 0; i < 512; i++ {
		p := &parallelProbe{inFlight: &inFlight, sawPar: &sawPar}
		p.scripted = *newScripted(i, geom.Point{X: float64(i), Y: 0})
		e.Add(p, 1)
	}
	e.RunUntil(nil, 0, 10)
	if atomic.LoadInt32(&sawPar) == 0 {
		t.Skip("no overlap observed; scheduler did not interleave (not a failure)")
	}
}

// countingMedium wraps a medium and tallies which resolution path the
// engine used.
type countingMedium struct {
	radio.IndexedMedium
	linear, indexed int32
}

func (c *countingMedium) Observe(round uint64, listenerID int, at geom.Point, txs []radio.Tx) radio.Obs {
	atomic.AddInt32(&c.linear, 1)
	return c.IndexedMedium.Observe(round, listenerID, at, txs)
}

func (c *countingMedium) ObserveSet(round uint64, listenerID int, at geom.Point, set *radio.TxSet) radio.Obs {
	atomic.AddInt32(&c.indexed, 1)
	return c.IndexedMedium.ObserveSet(round, listenerID, at, set)
}

// denseScripted builds a dense round: n devices on a grid, every third
// transmitting, the rest listening.
func denseScripted(e *Engine, n int) []*scripted {
	devs := make([]*scripted, n)
	side := 1
	for side*side < n {
		side++
	}
	for i := range devs {
		devs[i] = newScripted(i, geom.Point{X: float64(i % side), Y: float64(i / side)})
		if i%3 == 0 {
			devs[i].plan[1] = Step{Action: Transmit, Frame: radio.Frame{Payload: uint64(i)}, NextWake: NoWake}
		} else {
			devs[i].plan[1] = Step{Action: Listen, NextWake: NoWake}
		}
		e.Add(devs[i], 1)
	}
	return devs
}

func TestIndexedResolutionMatchesLinear(t *testing.T) {
	// A dense round resolved through the spatial index must deliver
	// bit-for-bit the same observations as the linear scan, and the
	// engine must actually have taken the indexed path.
	for _, m := range []radio.IndexedMedium{
		&radio.DiskMedium{R: 2.5, Metric: geom.LInf},
		&radio.DiskMedium{R: 2.5, Metric: geom.L2},
		radio.NewFriisMedium(2.5, 33),
	} {
		build := func(disable bool) ([]*scripted, *countingMedium) {
			cm := &countingMedium{IndexedMedium: m}
			e := NewEngine(cm)
			e.DisableIndex = disable
			devs := denseScripted(e, 400)
			e.RunUntil(nil, 0, 10)
			return devs, cm
		}
		lin, cmLin := build(true)
		idx, cmIdx := build(false)
		if cmLin.indexed != 0 || cmLin.linear == 0 {
			t.Fatalf("DisableIndex engine used indexed path (%d indexed, %d linear)", cmLin.indexed, cmLin.linear)
		}
		if cmIdx.indexed == 0 || cmIdx.linear != 0 {
			t.Fatalf("dense round did not use the indexed path (%d indexed, %d linear)", cmIdx.indexed, cmIdx.linear)
		}
		for i := range lin {
			if lin[i].obs[1] != idx[i].obs[1] {
				t.Fatalf("device %d: linear obs %+v != indexed obs %+v", i, lin[i].obs[1], idx[i].obs[1])
			}
		}
	}
}

func TestSparseRoundSkipsIndex(t *testing.T) {
	// Rounds below the density threshold resolve linearly: building the
	// index would cost more than it saves.
	cm := &countingMedium{IndexedMedium: &radio.DiskMedium{R: 2, Metric: geom.LInf}}
	e := NewEngine(cm)
	denseScripted(e, minIndexedTxs) // ceil(n/3) transmitters < minIndexedTxs
	e.RunUntil(nil, 0, 10)
	if cm.indexed != 0 || cm.linear == 0 {
		t.Fatalf("sparse round used indexed path (%d indexed, %d linear)", cm.indexed, cm.linear)
	}
}

func TestIndexedResolutionAcrossWorkers(t *testing.T) {
	// The shared per-round TxSet must be safe under phase-B fan-out:
	// worker counts must not change observations.
	build := func(workers int) []*scripted {
		e := NewEngine(radio.NewFriisMedium(2.5, 5))
		e.Workers = workers
		devs := denseScripted(e, 512)
		e.RunUntil(nil, 0, 10)
		return devs
	}
	seq := build(1)
	par := build(8)
	for i := range seq {
		if seq[i].obs[1] != par[i].obs[1] {
			t.Fatalf("device %d: sequential obs %+v != parallel obs %+v", i, seq[i].obs[1], par[i].obs[1])
		}
	}
}

func TestEmptyCalendarTerminates(t *testing.T) {
	e := newTestEngine()
	end := e.RunUntil(nil, 0, 1000)
	if end != 0 {
		t.Errorf("empty engine ran to %d", end)
	}
}

func BenchmarkEngineRound(b *testing.B) {
	e := NewEngine(&radio.DiskMedium{R: 4, Metric: geom.L2})
	n := 200
	devs := make([]*scripted, n)
	for i := range devs {
		devs[i] = newScripted(i, geom.Point{X: float64(i % 20), Y: float64(i / 20)})
		e.Add(devs[i], 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := uint64(i + 1)
		for _, d := range devs {
			if d.id%7 == 0 {
				d.plan[r] = Step{Action: Transmit, NextWake: r + 1}
			} else {
				d.plan[r] = Step{Action: Listen, NextWake: r + 1}
			}
		}
		e.RunUntil(func(uint64) bool { return true }, 0, uint64(i+2))
	}
}

// chaosDevice drives a pseudo-random but fully deterministic workload:
// every wake hashes (seed, id, round) into an action and a next wake
// that mixes near jumps, mid jumps, far jumps beyond the wheel window
// (forcing spill traffic), and occasional NoWake. It records its wake
// rounds and observations for exact cross-engine comparison.
type chaosDevice struct {
	id    int
	pos   geom.Point
	seed  uint64
	wakes []uint64
	obs   []radio.Obs
}

func (d *chaosDevice) ID() int         { return d.id }
func (d *chaosDevice) Pos() geom.Point { return d.pos }

func (d *chaosDevice) Wake(r uint64) Step {
	d.wakes = append(d.wakes, r)
	h := xrand.Hash64(d.seed, uint64(d.id), r)
	var st Step
	switch h % 4 {
	case 0:
		st.Action = Transmit
		st.Frame = radio.Frame{Kind: radio.KindData, Payload: h}
	case 1, 2:
		st.Action = Listen
	default:
		st.Action = Sleep
	}
	j := (h >> 8) % 16
	switch {
	case j == 0:
		st.NextWake = NoWake
	case j == 1: // into level 1: exercises coarse-bucket scatter
		st.NextWake = r + wheelSize + 1 + (h>>16)%(2*wheelSize)
	case j == 2: // exactly at the coarse-bucket boundary
		st.NextWake = r + wheelSize
	case j == 3: // past both wheel levels: exercises the overflow
		st.NextWake = r + wheelSpan + (h>>16)%(3*wheelSize)
	case j <= 5: // mid-range jump
		st.NextWake = r + 64 + (h>>16)%1024
	default: // near jump
		st.NextWake = r + 1 + (h>>16)%8
	}
	return st
}

func (d *chaosDevice) Deliver(r uint64, obs radio.Obs) { d.obs = append(d.obs, obs) }

// buildChaos populates an engine with n chaos devices on a unit-density
// square (some of them far outliers, so listener cells clamp at the
// spatial-hash border), plus duplicate same-round and far-future manual
// schedules.
func buildChaos(e *Engine, n int, seed uint64) []*chaosDevice {
	side := 1
	for side*side < n {
		side++
	}
	devs := make([]*chaosDevice, n)
	for i := range devs {
		p := geom.Point{X: float64(i % side), Y: float64(i / side)}
		switch i % 97 {
		case 13:
			p = geom.Point{X: -50, Y: p.Y} // outside the tx bounding box
		case 51:
			p = geom.Point{X: p.X + 500, Y: p.Y + 500}
		}
		devs[i] = &chaosDevice{id: i, pos: p, seed: seed}
		e.Add(devs[i], uint64(1+i%5))
	}
	// Duplicate wake-ups: same round twice, and a far-future duplicate
	// that lands in the spill twice.
	e.schedule(0, 3)
	e.schedule(0, 3)
	e.schedule(1, wheelSize*2+17)
	e.schedule(1, wheelSize*2+17)
	return devs
}

// chaosEqual fails the test unless every device woke in the same rounds
// with the same observations in both runs.
func chaosEqual(t *testing.T, label string, a, b []*chaosDevice) {
	t.Helper()
	for i := range a {
		if len(a[i].wakes) != len(b[i].wakes) {
			t.Fatalf("%s: device %d woke %d vs %d times", label, i, len(a[i].wakes), len(b[i].wakes))
		}
		for k := range a[i].wakes {
			if a[i].wakes[k] != b[i].wakes[k] {
				t.Fatalf("%s: device %d wake %d: round %d vs %d", label, i, k, a[i].wakes[k], b[i].wakes[k])
			}
		}
		if len(a[i].obs) != len(b[i].obs) {
			t.Fatalf("%s: device %d observed %d vs %d times", label, i, len(a[i].obs), len(b[i].obs))
		}
		for k := range a[i].obs {
			if a[i].obs[k] != b[i].obs[k] {
				t.Fatalf("%s: device %d obs %d: %+v vs %+v", label, i, k, a[i].obs[k], b[i].obs[k])
			}
		}
	}
}

// TestWheelMatchesHeapCalendar is the wake-wheel equivalence property:
// under a workload mixing near wakes, window-boundary wakes, far-future
// spills, duplicate same-round schedules and NoWake, the wheel must
// schedule and fire exactly like the legacy map+heap calendar — same
// wake rounds, same observations, same resolved-round count.
func TestWheelMatchesHeapCalendar(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		run := func(disableWheel bool) (*Engine, []*chaosDevice) {
			e := NewEngine(&radio.DiskMedium{R: 2, Metric: geom.LInf})
			e.DisableWheel = disableWheel
			devs := buildChaos(e, 150, seed)
			e.RunUntil(nil, 0, 30_000)
			return e, devs
		}
		he, heapDevs := run(true)
		we, wheelDevs := run(false)
		if he.ResolvedRounds() != we.ResolvedRounds() || he.Round() != we.Round() {
			t.Fatalf("seed %d: heap resolved %d rounds (ending %d), wheel %d (ending %d)",
				seed, he.ResolvedRounds(), he.Round(), we.ResolvedRounds(), we.Round())
		}
		chaosEqual(t, "wheel vs heap", heapDevs, wheelDevs)
	}
}

// TestWheelMatchesHeapChunkedRuns re-runs the equivalence with the
// wheel engine driven through many small RunUntil windows, exercising
// the peek-without-pop path at every maxRound boundary.
func TestWheelMatchesHeapChunkedRuns(t *testing.T) {
	heapEng := NewEngine(&radio.DiskMedium{R: 2, Metric: geom.LInf})
	heapEng.DisableWheel = true
	heapDevs := buildChaos(heapEng, 150, 7)
	heapEng.RunUntil(nil, 0, 30_000)

	wheelEng := NewEngine(&radio.DiskMedium{R: 2, Metric: geom.LInf})
	wheelDevs := buildChaos(wheelEng, 150, 7)
	for max := uint64(777); wheelEng.Round() < 30_000; max += 777 {
		if max > 30_000 {
			max = 30_000
		}
		wheelEng.RunUntil(nil, 0, max)
	}
	if heapEng.ResolvedRounds() != wheelEng.ResolvedRounds() {
		t.Fatalf("heap resolved %d rounds, chunked wheel %d", heapEng.ResolvedRounds(), wheelEng.ResolvedRounds())
	}
	chaosEqual(t, "chunked wheel vs heap", heapDevs, wheelDevs)
}

// TestWheelExactSpillBoundaries pins the wheel's window arithmetic with
// a scripted device waking exactly at, just past, and far past both
// level edges (coarse-bucket boundary and the full two-level horizon).
func TestWheelExactSpillBoundaries(t *testing.T) {
	rounds := []uint64{
		1, 2, wheelSize - 1, wheelSize, wheelSize + 1, 2*wheelSize + 3, 5*wheelSize + 7,
		wheelSpan - 1, wheelSpan, wheelSpan + 1, 2*wheelSpan + wheelSize + 5,
	}
	run := func(disableWheel bool) []uint64 {
		e := newTestEngine()
		e.DisableWheel = disableWheel
		a := newScripted(0, geom.Point{})
		for i, r := range rounds {
			next := NoWake
			if i+1 < len(rounds) {
				next = rounds[i+1]
			}
			a.plan[r] = Step{Action: Listen, NextWake: next}
		}
		e.Add(a, rounds[0])
		e.RunUntil(nil, 0, NoWake-1)
		return a.wakes
	}
	heapWakes := run(true)
	wheelWakes := run(false)
	if len(heapWakes) != len(rounds) {
		t.Fatalf("heap calendar fired %d wakes, want %d", len(heapWakes), len(rounds))
	}
	for i := range rounds {
		if heapWakes[i] != rounds[i] || wheelWakes[i] != rounds[i] {
			t.Fatalf("wake %d: heap %d wheel %d, want %d", i, heapWakes[i], wheelWakes[i], rounds[i])
		}
	}
}

// deepStrideDevice wakes every stride rounds (NoWake after its wake budget
// runs out, if one is set), recording its wake rounds.
type deepStrideDevice struct {
	id     int
	stride uint64
	budget int
	wakes  []uint64
}

func (d *deepStrideDevice) ID() int         { return d.id }
func (d *deepStrideDevice) Pos() geom.Point { return geom.Point{X: float64(d.id), Y: 0} }
func (d *deepStrideDevice) Wake(r uint64) Step {
	d.wakes = append(d.wakes, r)
	if d.budget > 0 && len(d.wakes) >= d.budget {
		return Step{Action: Sleep, NextWake: NoWake}
	}
	return Step{Action: Listen, NextWake: r + d.stride}
}
func (d *deepStrideDevice) Deliver(uint64, radio.Obs) {}

// TestWheelMatchesHeapDeepHorizons drives wake cycles far past both
// wheel levels — strides around the coarse-bucket boundary, the last
// level-1 bucket, the full two-level horizon, and deep overflow — with
// duplicate overflow schedules, a NoWake dropout, and a mid-run Add
// behind the wheel base (the rebase path), pinned identical to the
// legacy heap calendar.
func TestWheelMatchesHeapDeepHorizons(t *testing.T) {
	strides := []uint64{
		wheelSize - 1, wheelSize, wheelSize + 1, // level-0/level-1 boundary
		3*wheelSize + 5,                         // mid level-1
		wheelSpan - wheelSize,                   // last level-1 bucket
		wheelSpan - 1, wheelSpan, wheelSpan + 1, // level-1/overflow boundary
		2*wheelSpan + 12345, // deep overflow: migrates twice
	}
	const maxRound = 5 * wheelSpan / 2
	run := func(disableWheel bool) ([]*deepStrideDevice, *Engine) {
		e := NewEngine(&radio.DiskMedium{R: 2, Metric: geom.LInf})
		e.DisableWheel = disableWheel
		devs := make([]*deepStrideDevice, 0, len(strides)+2)
		for i, s := range strides {
			d := &deepStrideDevice{id: i, stride: s}
			devs = append(devs, d)
			e.Add(d, uint64(i)+1)
		}
		// A device that stops waking after five deep cycles.
		dn := &deepStrideDevice{id: len(strides), stride: wheelSpan + 7, budget: 5}
		devs = append(devs, dn)
		e.Add(dn, 2)
		// Duplicate wake-ups deep in the overflow and at the horizon edge.
		e.schedule(0, wheelSpan+5)
		e.schedule(0, wheelSpan+5)
		e.schedule(1, wheelSpan-1)
		e.schedule(1, 2*wheelSpan+3)
		e.RunUntil(nil, 0, maxRound/2)
		// Adding behind the advanced wheel base forces a rebase.
		late := &deepStrideDevice{id: len(strides) + 1, stride: wheelSpan - 3}
		devs = append(devs, late)
		e.Add(late, e.Round()+1)
		e.RunUntil(nil, 0, maxRound)
		return devs, e
	}
	heapDevs, he := run(true)
	wheelDevs, we := run(false)
	if he.ResolvedRounds() != we.ResolvedRounds() || he.Round() != we.Round() {
		t.Fatalf("heap resolved %d rounds (ending %d), wheel %d (ending %d)",
			he.ResolvedRounds(), he.Round(), we.ResolvedRounds(), we.Round())
	}
	for i := range heapDevs {
		if !slices.Equal(heapDevs[i].wakes, wheelDevs[i].wakes) {
			t.Fatalf("device %d: heap wakes %v, wheel wakes %v", i, heapDevs[i].wakes, wheelDevs[i].wakes)
		}
	}
	if len(heapDevs[0].wakes) == 0 || heapDevs[len(strides)].wakes[len(heapDevs[len(strides)].wakes)-1] >= maxRound {
		t.Fatal("deep workload did not exercise the horizon as intended")
	}
}

// wheelArrays counts the level-0 slot arrays the engine holds: the free
// list plus every occupied slot.
func wheelArrays(e *Engine) int {
	n := len(e.wheelFree)
	for _, b := range e.wheel {
		if b != nil {
			n++
		}
	}
	return n
}

// TestWheelFreeListBounded runs fleets across many coarse buckets and
// requires the level-0 array free list to stay bounded: with one
// pending wake-up per device, level 0 never needs more arrays than
// devices plus the round being resolved. Every append site must draw
// from the list — one that allocated instead (the level-1 scatter, or
// overflow migration straight into level 0) would grow it by an array
// per round it fills.
func TestWheelFreeListBounded(t *testing.T) {
	for _, fleet := range []struct {
		label    string
		strides  []uint64
		maxRound uint64
	}{
		// Near and level-1 strides: 64 coarse buckets of scatters.
		{"level1", []uint64{1, 3, 7, 97, 1023, wheelSize - 1, wheelSize + 13, 2*wheelSize + 1, 5*wheelSize + 3}, 64 * wheelSize},
		// Only overflow strides, waking in one coarse bucket: the
		// wheels drain between wake-ups, so the clock jumps to each and
		// migrates it straight into level 0.
		{"overflow", []uint64{2*wheelSpan + 5, 2*wheelSpan + 9}, 16 * wheelSpan},
	} {
		e := NewEngine(&radio.DiskMedium{R: 2, Metric: geom.LInf})
		devs := make([]*deepStrideDevice, len(fleet.strides))
		for i, s := range fleet.strides {
			devs[i] = &deepStrideDevice{id: i, stride: s}
			e.Add(devs[i], uint64(i)+1)
		}
		e.RunUntil(nil, 0, fleet.maxRound)
		for i, d := range devs {
			want := (fleet.maxRound-uint64(i)-2)/d.stride + 1
			if uint64(len(d.wakes)) != want {
				t.Fatalf("%s: device %d (stride %d) woke %d times, want %d", fleet.label, i, d.stride, len(d.wakes), want)
			}
		}
		if got, bound := wheelArrays(e), len(devs)+1; got > bound {
			t.Fatalf("%s: level 0 holds %d slot arrays after %d rounds, want <= %d", fleet.label, got, e.ResolvedRounds(), bound)
		}
	}
}

// TestCellShardedMatchesFlat is the phase-B ordering property: cell-
// ordered, shard-stolen delivery must produce exactly the observations
// of flat wake-order delivery and of the fully linear scan, across
// worker counts, for both built-in media (including lossy Friis, whose
// per-candidate fade hash would expose any listener/candidate mixup).
func TestCellShardedMatchesFlat(t *testing.T) {
	media := map[string]func() radio.Medium{
		"disk-linf": func() radio.Medium { return &radio.DiskMedium{R: 2.5, Metric: geom.LInf} },
		"disk-l2":   func() radio.Medium { return &radio.DiskMedium{R: 2.5, Metric: geom.L2} },
		"friis": func() radio.Medium {
			m := radio.NewFriisMedium(2.5, 33)
			m.LossProb = 0.3
			return m
		},
	}
	for name, mk := range media {
		var ref []*chaosDevice
		for _, cfg := range []struct {
			label   string
			flat    bool
			linear  bool
			workers int
		}{
			{label: "cells", flat: false},
			{label: "flat", flat: true},
			{label: "linear", linear: true},
			{label: "cells-parallel", flat: false, workers: 4},
		} {
			e := NewEngine(mk())
			e.flatDelivery = cfg.flat
			e.DisableIndex = cfg.linear
			e.Workers = cfg.workers
			devs := buildChaos(e, 400, 21)
			e.RunUntil(nil, 0, 500)
			if ref == nil {
				ref = devs
				continue
			}
			chaosEqual(t, name+": "+cfg.label+" vs cells", ref, devs)
		}
	}
}

// countingCandMedium tallies candidate-path resolutions so tests can
// assert the engine actually took the cell-sharded path.
type countingCandMedium struct {
	radio.CandidateMedium
	cand int32
}

func (c *countingCandMedium) ObserveCand(round uint64, listenerID int, at geom.Point, txs []radio.Tx, cand []int32) radio.Obs {
	atomic.AddInt32(&c.cand, 1)
	return c.CandidateMedium.ObserveCand(round, listenerID, at, txs, cand)
}

func TestDenseRoundUsesCandidatePath(t *testing.T) {
	cm := &countingCandMedium{CandidateMedium: radio.NewFriisMedium(2.5, 5)}
	e := NewEngine(cm)
	denseScripted(e, 400)
	e.RunUntil(nil, 0, 10)
	if cm.cand == 0 {
		t.Fatal("dense round did not use the candidate (cell-sharded) path")
	}
}

// countingCellMedium embeds the concrete Friis medium (so CellMedium is
// satisfied by promotion) and tallies BeginCell calls.
type countingCellMedium struct {
	*radio.FriisMedium
	cells int32
}

func (c *countingCellMedium) BeginCell(cs *radio.CellState, round uint64, set *radio.TxSet, lo, hi geom.Point) {
	atomic.AddInt32(&c.cells, 1)
	c.FriisMedium.BeginCell(cs, round, set, lo, hi)
}

// TestDenseRoundUsesCellPath asserts the engine routes built-in media
// through the shared per-cell half, while countingCandMedium above —
// a wrapper embedding only the CandidateMedium interface — must stay on
// the per-listener candidate path so its override keeps effect.
func TestDenseRoundUsesCellPath(t *testing.T) {
	cm := &countingCellMedium{FriisMedium: radio.NewFriisMedium(2.5, 5)}
	e := NewEngine(cm)
	denseScripted(e, 400)
	e.RunUntil(nil, 0, 10)
	if cm.cells == 0 {
		t.Fatal("dense round did not use the cell-shared path")
	}
}

// blockFleet is a flat-array test fleet: the block sweeps and the
// per-device methods run the same step/deliver logic, and every
// delivered observation is logged per device for comparison.
type blockFleet struct {
	pos []geom.Point
	log [][]radio.Obs
}

func (g *blockFleet) step(h uint32, r uint64) Step {
	switch (uint64(h)*2654435761 + r) % 7 {
	case 0, 1:
		return Step{Action: Transmit, Frame: radio.Frame{Kind: radio.KindData, Src: int(h), Payload: r}, NextWake: r + 1 + (uint64(h)+r)%4}
	case 2:
		return Step{Action: Sleep, NextWake: r + 3}
	default:
		return Step{Action: Listen, NextWake: r + 1 + uint64(h)%3}
	}
}

func (g *blockFleet) WakeBlock(r uint64, handles []uint32, steps []Step) {
	for k, h := range handles {
		steps[k] = g.step(h, r)
	}
}

func (g *blockFleet) DeliverBlock(r uint64, handles []uint32, obs []radio.Obs) {
	for k, h := range handles {
		g.log[h] = append(g.log[h], obs[k])
	}
}

// blockFleetDev opts into the batched sweeps; plainFleetDev is the same
// device without Block, keeping the engine on the per-device methods.
type blockFleetDev struct {
	g  *blockFleet
	id int32
}

func (d *blockFleetDev) ID() int                         { return int(d.id) }
func (d *blockFleetDev) Pos() geom.Point                 { return d.g.pos[d.id] }
func (d *blockFleetDev) Wake(r uint64) Step              { return d.g.step(uint32(d.id), r) }
func (d *blockFleetDev) Deliver(r uint64, obs radio.Obs) { d.g.log[d.id] = append(d.g.log[d.id], obs) }
func (d *blockFleetDev) Block() (BlockHandler, uint32)   { return d.g, uint32(d.id) }

type plainFleetDev struct{ blockFleetDev }

func (d *plainFleetDev) Block() {} // not a BlockDevice: wrong signature shadows the promotion

// TestBlockDeviceMatchesPerDevice pins the batched phase-A/phase-B
// sweeps bit-for-bit to the per-device Wake/Deliver path, sequentially
// and with workers (the -race run covers the disjoint-handle contract).
func TestBlockDeviceMatchesPerDevice(t *testing.T) {
	const n, rounds = 300, 200
	run := func(batched bool, workers int) *blockFleet {
		m := radio.NewFriisMedium(2.5, 11)
		m.LossProb = 0.2
		e := NewEngine(m)
		e.Workers = workers
		side := 1
		for side*side < n {
			side++
		}
		g := &blockFleet{pos: make([]geom.Point, n), log: make([][]radio.Obs, n)}
		for i := range g.pos {
			g.pos[i] = geom.Point{X: float64(i % side), Y: float64(i / side)}
		}
		if batched {
			ds := make([]blockFleetDev, n)
			for i := range ds {
				ds[i] = blockFleetDev{g: g, id: int32(i)}
				e.Add(&ds[i], 1)
			}
		} else {
			ds := make([]plainFleetDev, n)
			for i := range ds {
				ds[i] = plainFleetDev{blockFleetDev{g: g, id: int32(i)}}
				e.Add(&ds[i], 1)
			}
		}
		if e.batched != batched {
			t.Fatalf("engine batched = %v, want %v", e.batched, batched)
		}
		e.RunUntil(nil, 0, rounds)
		return g
	}
	ref := run(false, 0)
	for _, workers := range []int{0, 4} {
		got := run(true, workers)
		for i := range ref.log {
			if !slices.Equal(ref.log[i], got.log[i]) {
				t.Fatalf("workers=%d device %d: batched observations diverge from per-device path", workers, i)
			}
		}
	}
}

// strideDevice sleeps in a fixed stride, exercising pure scheduler cost
// (no transmissions, no listeners).
type strideDevice struct {
	id     int
	stride uint64
}

func (d *strideDevice) ID() int                   { return d.id }
func (d *strideDevice) Pos() geom.Point           { return geom.Point{} }
func (d *strideDevice) Wake(r uint64) Step        { return Step{Action: Sleep, NextWake: r + d.stride} }
func (d *strideDevice) Deliver(uint64, radio.Obs) {}

// benchSparseCalendar measures scheduler overhead on a sparse calendar:
// many scheduled rounds, few devices each. Strides mix near-future
// rounds with far-future ones beyond the wheel window.
func benchSparseCalendar(b *testing.B, disableWheel bool) {
	e := NewEngine(&radio.DiskMedium{R: 1, Metric: geom.LInf})
	e.DisableWheel = disableWheel
	strides := []uint64{7, 13, 40, 97, 256, 601, 1023, 2049, wheelSize + 13, 2*wheelSize + 1}
	for i := 0; i < 32; i++ {
		e.Add(&strideDevice{id: i, stride: strides[i%len(strides)]}, uint64(1+i))
	}
	b.ResetTimer()
	e.RunUntil(func(uint64) bool { return e.ResolvedRounds() >= uint64(b.N) }, 0, NoWake-1)
}

func BenchmarkSparseCalendarWheel(b *testing.B) { benchSparseCalendar(b, false) }
func BenchmarkSparseCalendarHeap(b *testing.B)  { benchSparseCalendar(b, true) }
