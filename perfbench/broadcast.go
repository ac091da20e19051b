package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"

	"authradio/internal/core"
	"authradio/internal/experiment"
)

// The broadcast workload is one rbsim-style NeighborWatchRB broadcast
// at scale: 20000 uniform devices on a 94×94 map, range 4, 5% liars,
// run to completion with the engine's in-round workers, one broadcast
// per fresh process.

// broadcastScenario is the workload's input for a benchmark seed; see
// broadcastMessage for what the seed varies.
func broadcastScenario(seed uint64) experiment.Scenario {
	drv, _ := core.Lookup("nw")
	return experiment.Scenario{
		Name:         "rbsim",
		ProtocolName: drv.Name(),
		Deploy:       experiment.Uniform,
		Nodes:        20000,
		MapSide:      94,
		Range:        4,
		MsgBits:      broadcastMessage(seed),
		MsgLen:       4,
		T:            3,
		AdversaryMix: experiment.AdversaryMix{LiarFrac: 0.05},
		Seed:         3,
		MaxRounds:    5_000_000,
	}
}

// oneBroadcast builds and runs the broadcast, under the traced driver
// or, untraced, metered against the reference kernel.
func oneBroadcast(seed uint64, traced bool) (workerReport, error) {
	s := broadcastScenario(seed)
	before := refCPU(refCalls)
	m := startSpan()
	w, err := s.BuildWorld(0, core.WithWorkers(runtime.GOMAXPROCS(0)))
	if err != nil {
		return workerReport{}, err
	}
	defer w.Close()
	rep := workerReport{Build: m.end()}
	rep.Build.Ref = (before + refCPU(refCalls)) / 2
	var d *tracedDriver
	if traced {
		runtime.GC()
		rep.HeapPerDevice = float64(readMem().HeapAlloc) / float64(w.Eng.Devices())
		d = traceEngine(w.Eng)
	}
	var res core.Result
	mem := readMem()
	if traced {
		m = startSpan()
		res = w.Run(s.MaxRounds)
		rep.Op = m.end()
	} else {
		var meter refMeter
		meterEngine(w.Eng, &meter)
		m = startSpan()
		meter.start()
		res = w.Run(s.MaxRounds)
		meter.step()
		rep.Op = meter.span(m.end())
	}
	rep.Mem = memSince(mem)
	rep.Results = []core.Result{res}
	if traced {
		rep.Trace = &layerTrace{}
		rep.Trace.add(d, rep.Build.Wall, rep.Op.Wall)
	}
	return rep, nil
}

// checkBroadcast compares a broadcast's result with the recorded one.
func checkBroadcast(rep childRun) error {
	if len(rep.Results) != 1 {
		return fmt.Errorf("broadcast returned %d results", len(rep.Results))
	}
	if rep.Results[0] != broadcastWant {
		return mismatch("broadcast result", rep.Results[0], broadcastWant)
	}
	return nil
}

// runBroadcast runs broadcasts in fresh processes for the run's
// length. Set-up is world construction (deployment, schedules, device
// fleet), timed inside each process.
func runBroadcast(ctx context.Context, e *env) error {
	seed := strconv.FormatUint(e.seed, 10)
	runs, err := checkedWorkers(ctx, e, forRun(e), checkBroadcast, "-kind", "broadcast", "-seed", seed)
	if err != nil {
		return err
	}
	builds := make([]span, len(runs))
	for i, c := range runs {
		builds[i] = c.Build
	}
	e.setSetup(builds)
	e.setOps(opSpans(runs))
	return nil
}

// traceBroadcast runs the broadcast untraced and traced in fresh
// processes and requires equal results.
func traceBroadcast(ctx context.Context, e *env) error {
	zeroLayers(e)
	seed := strconv.FormatUint(e.seed, 10)
	u, err := runWorker(ctx, "-kind", "broadcast", "-seed", seed)
	if err != nil {
		return err
	}
	t, err := runWorker(ctx, "-kind", "broadcast", "-seed", seed, "-traced")
	if err != nil {
		return err
	}
	e.check(checkBroadcast(u))
	compareResults(e, "broadcast", t.Results, u.Results)
	t.Trace.report(e)
	u.Mem.report(e)
	e.set("go.heap_bytes_per_device", t.HeapPerDevice)
	e.set("experiment.cells", 1)
	cell := seconds(u.Build.Wall + u.Op.Wall)
	e.set("experiment.cell_s_p50", cell)
	e.set("experiment.cell_s_max", cell)
	e.set("op.samples", 1)
	e.set("proc.peak_rss_mb", u.PeakRSS)
	e.set("wall.op_ms_p50", millis(u.Op.Wall))
	e.set("wall.ops_per_s", 1/(u.Build.Wall+u.Op.Wall).Seconds())
	reportOverhead(e, t.Op.CPU, u.Op.CPU)
	return nil
}
