package main

import (
	"time"

	"authradio/internal/radio"
	"authradio/internal/sim"
)

// tracedDriver decorates the production round resolver with
// outside-in timers and counters. It forwards every call unchanged, so
// every fast path of the resolver stays on and the results are those
// of an untraced run.
//
// Phase A is the time inside Begin (device Wake, step folding,
// wake-up scheduling); phase B is the time inside Collect and Deliver
// (channel resolution and listener delivery). Whatever else the run
// loop spends — the wake wheel, wake deduplication, stop polling — is
// the clock: the caller's wall time minus the two phases.
type tracedDriver struct {
	inner              sim.RoundDriver
	rounds, wakes, txs uint64
	phaseA, phaseB     time.Duration
	mark               time.Time // end of the previous call of this round
}

// traceEngine installs a tracedDriver around the default resolver of
// e, after every device has been added.
func traceEngine(e *sim.Engine) *tracedDriver {
	d := &tracedDriver{inner: sim.NewResolverDriver(e, nil)}
	e.UseDriver(d)
	return d
}

func (d *tracedDriver) Begin(r uint64, wakes []int32) {
	start := time.Now()
	d.inner.Begin(r, wakes)
	d.mark = time.Now()
	d.phaseA += d.mark.Sub(start)
	d.rounds++
	d.wakes += uint64(len(wakes))
}

func (d *tracedDriver) Collect(r uint64) []radio.Tx {
	txs := d.inner.Collect(r)
	d.txs += uint64(len(txs))
	return txs
}

func (d *tracedDriver) Deliver(r uint64, hook sim.ObsHook) {
	d.inner.Deliver(r, hook)
	d.phaseB += time.Since(d.mark)
}

// refRounds is how many rounds a meteredDriver runs between reference
// kernel calls: about 50 ms of a 20000-device broadcast.
const refRounds = 32

// meteredDriver forwards every call to the production resolver and
// ends a refMeter step every refRounds rounds, before the round begins.
type meteredDriver struct {
	sim.RoundDriver
	meter  *refMeter
	rounds int
}

// meterEngine installs a meteredDriver around the default resolver of
// e, after every device has been added.
func meterEngine(e *sim.Engine, m *refMeter) {
	e.UseDriver(&meteredDriver{RoundDriver: sim.NewResolverDriver(e, nil), meter: m})
}

func (d *meteredDriver) Begin(r uint64, wakes []int32) {
	if d.rounds > 0 && d.rounds%refRounds == 0 {
		d.meter.step()
	}
	d.rounds++
	d.RoundDriver.Begin(r, wakes)
}

// layerTrace sums the traced drivers of many runs.
type layerTrace struct {
	Rounds, Wakes, Txs uint64
	PhaseA, PhaseB     time.Duration
	Run                time.Duration // wall time of the traced runs
	Build              time.Duration // wall time of building them
}

func (t *layerTrace) add(d *tracedDriver, build, run time.Duration) {
	t.Rounds += d.rounds
	t.Wakes += d.wakes
	t.Txs += d.txs
	t.PhaseA += d.phaseA
	t.PhaseB += d.phaseB
	t.Build += build
	t.Run += run
}

// report sets the sim.* and core.build_s metrics.
func (t *layerTrace) report(e *env) {
	e.set("sim.rounds", float64(t.Rounds))
	e.set("sim.wakes", float64(t.Wakes))
	e.set("sim.txs", float64(t.Txs))
	e.set("sim.phase_a_s", seconds(t.PhaseA))
	e.set("sim.phase_b_s", seconds(t.PhaseB))
	e.set("sim.clock_s", seconds(t.Run-t.PhaseA-t.PhaseB))
	if t.Wakes > 0 {
		e.set("sim.phase_a_ns_per_wake", float64(t.PhaseA.Nanoseconds())/float64(t.Wakes))
	}
	if t.Rounds > 0 {
		e.set("sim.phase_b_ns_per_round", float64(t.PhaseB.Nanoseconds())/float64(t.Rounds))
	}
	e.set("core.build_s", seconds(t.Build))
}
