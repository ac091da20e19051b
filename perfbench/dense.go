package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"authradio/internal/experiment"
	"authradio/internal/sim"
)

// The dense workload is the CI scale gate's regime: 65536 block devices
// on a uniform map under the Friis medium, sequential engine, every
// device awake every round and an eighth of them transmitting. It runs
// in this process, one round at a time.

const (
	denseDevices = 65536
	denseTx      = denseDevices / 8 // transmissions per round
	denseWarmup  = 8                // rounds before timing
	denseSetups  = 3
	// denseTraceRounds is fixed so the traced counts repeat exactly.
	denseTraceRounds = 120
)

// buildDense constructs and warms up the engine for a seed.
func buildDense(seed uint64) *sim.Engine {
	e := experiment.DenseRoundEngine(denseDevices, false, seed)
	experiment.DenseRounds(e, denseWarmup)
	return e
}

// denseRound runs one round and checks it added denseTx transmissions
// and one resolved round. totalTx is the engine's count before the
// round; the count after it is returned.
func denseRound(e *sim.Engine, totalTx uint64) (span, uint64, error) {
	rounds := e.ResolvedRounds()
	m := startSpan()
	experiment.DenseRounds(e, 1)
	d := m.end()
	tx := e.TotalTx()
	if tx-totalTx != denseTx || e.ResolvedRounds()-rounds != 1 {
		return d, tx, fmt.Errorf("dense round: %d transmissions and %d rounds, want %d and 1",
			tx-totalTx, e.ResolvedRounds()-rounds, denseTx)
	}
	return d, tx, nil
}

// runDense times single rounds for the run's length, each followed by
// one reference-kernel call. Set-up is engine construction plus
// warm-up, as buildDense does it but metered step by step, repeated
// denseSetups times; the last engine is the one timed. The engine is sequential, so a round's CPU time is its own
// plus the garbage collector's share.
func runDense(ctx context.Context, e *env) error {
	var setups, ops []span
	var eng *sim.Engine
	for i := 0; i < denseSetups; i++ {
		eng = nil
		runtime.GC()
		var meter refMeter
		m := startSpan()
		meter.start()
		eng = experiment.DenseRoundEngine(denseDevices, false, e.seed)
		meter.step()
		for r := 0; r < denseWarmup; r++ {
			experiment.DenseRounds(eng, 1)
			meter.step()
		}
		setups = append(setups, meter.span(m.end()))
	}
	tx := eng.TotalTx()
	start := time.Now()
	for time.Since(start) < e.seconds && ctx.Err() == nil {
		d, next, err := denseRound(eng, tx)
		tx = next
		if e.check(err) {
			d.Ref = refCPU(1)
			ops = append(ops, d)
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if len(ops) == 0 {
		return errMissing
	}
	e.setSetup(setups)
	e.setOps(ops)
	return nil
}

// traceDense runs denseTraceRounds rounds on an untraced engine and
// on a traced one built from the same seed, and requires both to make
// the same transmissions, device by device.
func traceDense(ctx context.Context, e *env) error {
	zeroLayers(e)
	var tr layerTrace
	var untraced, traced time.Duration // CPU
	var ops []float64                  // wall, ms

	t := time.Now()
	u := buildDense(e.seed)
	build := time.Since(t)
	runtime.GC()
	e.set("go.heap_bytes_per_device", float64(readMem().HeapAlloc)/float64(u.Devices()))
	tx := u.TotalTx()
	before := readMem()
	start := time.Now()
	for i := 0; i < denseTraceRounds && ctx.Err() == nil; i++ {
		d, next, err := denseRound(u, tx)
		tx = next
		untraced += d.CPU
		if e.check(err) {
			ops = append(ops, millis(d.Wall))
		}
	}
	elapsed := time.Since(start)
	memSince(before).report(e)

	tdrv := buildDense(e.seed)
	d := traceEngine(tdrv)
	ttx := tdrv.TotalTx()
	for i := 0; i < denseTraceRounds && ctx.Err() == nil; i++ {
		rd, next, err := denseRound(tdrv, ttx)
		ttx = next
		e.check(err)
		tr.Run += rd.Wall
		traced += rd.CPU
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	tr.add(d, build, 0)
	tr.report(e)

	same := u.TotalTx() == tdrv.TotalTx() && u.ResolvedRounds() == tdrv.ResolvedRounds()
	for id := 0; same && id < denseDevices; id++ {
		same = u.TxCount(id) == tdrv.TxCount(id)
	}
	e.check(boolErr(same, "traced dense engine transmitted differently from the untraced one"))

	v, pct := tail(ops)
	e.set("op.tail_ms", v)
	e.set("op.tail_pct", pct)
	e.set("op.samples", float64(len(ops)))
	e.set("proc.peak_rss_mb", selfPeakRSS())
	e.set("wall.op_ms_p50", median(ops))
	e.set("wall.ops_per_s", float64(len(ops))/elapsed.Seconds())
	reportOverhead(e, traced, untraced)
	return nil
}
