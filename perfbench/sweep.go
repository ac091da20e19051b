package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"authradio/internal/core"
	"authradio/internal/experiment"
	"authradio/internal/sweep"
)

// The sweep workload is the work of `rbexp -exp matrix -json -seed 1`:
// 98 cells (every registered instance × the seven-mix ladder on a 7×7
// grid) computed in order through the cells' own closures, as the
// command-line sweep computes them, one sweep per fresh process. Its
// input does not follow the benchmark
// seed: the matrix seed changes the sweep's work by up to a quarter
// (6.1M rounds at seed 1, 7.8M at seed 3), so a seeded input would
// measure the seed rather than the code. Seed 1 is also the one the
// checked-in golden document pins.
const sweepSeed = 1

// sweepSetups is how many reference documents set-up computes.
const sweepSetups = 2

// runSweep times matrix sweeps, each metered cell by cell against the
// reference kernel. Set-up computes the sweep through a fresh cache
// (sweep.Run, as `rbexp serve` fills one) and renders the document,
// which must equal the checked-in golden byte for byte; every timed
// sweep must then return the set-up's results, cell by cell, which
// render that same document.
func runSweep(ctx context.Context, e *env) error {
	seed := strconv.FormatUint(sweepSeed, 10)
	golden, err := readGolden(e.root)
	if err != nil {
		return err
	}
	refs, err := checkedWorkers(ctx, e, func(n int) bool { return n < sweepSetups },
		func(c childRun) error { return sameDoc("cached sweep vs golden", c.JSON, golden) },
		"-kind", "sweep-ref", "-seed", seed)
	if err != nil {
		return err
	}
	want := refs[0].Results
	sweeps, err := checkedWorkers(ctx, e, forRun(e), func(c childRun) error {
		if !slices.Equal(c.Results, want) {
			return fmt.Errorf("matrix sweep: results differ from the golden-checked set-up's")
		}
		return nil
	}, "-kind", "cells", "-seed", seed)
	if err != nil {
		return err
	}
	e.setSetup(opSpans(refs))
	e.setOps(opSpans(sweeps))
	return nil
}

// opSpans returns the children's operation spans.
func opSpans(cs []childRun) []span {
	out := make([]span, len(cs))
	for i, c := range cs {
		out[i] = c.Op
	}
	return out
}

// readGolden returns the checked-in matrix document at seed 1.
func readGolden(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "cmd/rbexp/testdata/matrix_golden.json"))
	return string(b), err
}

// sameDoc compares a rendered document with its reference.
func sameDoc(what, got, want string) error {
	if got == want {
		return nil
	}
	return fmt.Errorf("%s: document differs from the reference (%d vs %d bytes)", what, len(got), len(want))
}

// traceSweep replays the matrix cells twice in fresh processes, once
// through the plain cell closures and once through BuildWorld with the
// traced driver, and requires equal results cell by cell. The traced
// results, stored in a cache, must render the golden document; the
// sweep layer is then timed over that cache.
func traceSweep(ctx context.Context, e *env) error {
	zeroLayers(e)
	seed := strconv.FormatUint(sweepSeed, 10)
	u, err := runWorker(ctx, "-kind", "cells", "-seed", seed)
	if err != nil {
		return err
	}
	t, err := runWorker(ctx, "-kind", "cells", "-seed", seed, "-traced")
	if err != nil {
		return err
	}
	compareResults(e, "cell", t.Results, u.Results)

	dir, err := os.MkdirTemp("", "perfbench-sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := sweep.Open(dir)
	if err != nil {
		return err
	}
	o := matrixOptions(sweepSeed)
	cells := matrixCells(o)
	if len(cells) != len(t.Results) {
		return fmt.Errorf("replay returned %d results for %d cells", len(t.Results), len(cells))
	}
	for i, c := range cells {
		if err := cache.Put(c.Key, t.Results[i]); err != nil {
			return err
		}
	}
	golden, err := readGolden(e.root)
	if err != nil {
		return err
	}
	rendered := o
	rendered.Cache = cache
	doc, err := renderMatrix(rendered)
	if err == nil {
		err = sameDoc("traced results rendered vs golden", doc, golden)
	}
	e.check(err)
	if _, err := measureSweepLayer(e, o, cache, t.Results); err != nil {
		return err
	}

	t.Trace.report(e)
	u.Mem.report(e)
	cellSecs := make([]float64, len(u.CellWall))
	for i, d := range u.CellWall {
		cellSecs[i] = seconds(d)
	}
	e.set("experiment.cells", float64(len(cellSecs)))
	e.set("experiment.cell_s_p50", median(cellSecs))
	e.set("experiment.cell_s_max", maxOf(cellSecs))
	e.set("op.samples", 1)
	e.set("proc.peak_rss_mb", u.PeakRSS)
	e.set("wall.op_ms_p50", millis(u.Op.Wall))
	e.set("wall.ops_per_s", 1/u.Op.Wall.Seconds())
	reportOverhead(e, t.Op.CPU, u.Op.CPU)
	return nil
}

// compareResults checks traced results against untraced ones, one
// operation per result.
func compareResults(e *env, what string, got, want []core.Result) {
	if len(got) != len(want) {
		e.check(mismatch(what+" count", len(got), len(want)))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			e.check(mismatch(fmt.Sprintf("traced %s %d", what, i), got[i], want[i]))
			continue
		}
		e.check(nil)
	}
}

// reportOverhead sets the tracing overhead from traced and untraced
// CPU times of the same work.
func reportOverhead(e *env, traced, untraced time.Duration) {
	e.set("trace.overhead_s", seconds(traced-untraced))
	if untraced > 0 {
		e.set("trace.overhead_pct", 100*float64(traced-untraced)/float64(untraced))
	}
}

// replayCells runs every matrix cell in order, as the command-line
// sweep does at one repetition per cell: untraced through the cells'
// own closures, metered cell by cell against the reference kernel;
// traced through BuildWorld with the engine's workers and the traced
// driver.
func replayCells(seed uint64, traced bool) (workerReport, error) {
	o := matrixOptions(seed)
	scens, reps := experiment.MatrixGrid(o, nil, nil)
	var rep workerReport
	before := readMem()
	m := startSpan()
	if !traced {
		var meter refMeter
		meter.start()
		for _, s := range scens {
			for _, c := range experiment.SweepCells(s, o, reps) {
				t := time.Now()
				rep.Results = append(rep.Results, c.Compute())
				rep.CellWall = append(rep.CellWall, time.Since(t))
				meter.step()
			}
		}
		rep.Op = meter.span(m.end())
	} else {
		rep.Trace = &layerTrace{}
		var opts []core.Option
		if workers := runtime.GOMAXPROCS(0); reps == 1 && workers > 1 {
			opts = append(opts, core.WithWorkers(workers))
		}
		for _, s := range scens {
			s.Params = s.Params.Merge(o.Params)
			for r := 0; r < reps; r++ {
				res, err := tracedRun(s, r, rep.Trace, opts...)
				if err != nil {
					return rep, err
				}
				rep.Results = append(rep.Results, res)
			}
		}
		rep.Op = m.end()
	}
	rep.Mem = memSince(before)
	return rep, nil
}

// tracedRun builds repetition r of s, runs it under the traced driver
// and adds its layer times to tr.
func tracedRun(s experiment.Scenario, r int, tr *layerTrace, opts ...core.Option) (core.Result, error) {
	t0 := time.Now()
	w, err := s.BuildWorld(r, opts...)
	if err != nil {
		return core.Result{}, err
	}
	defer w.Close()
	build := time.Since(t0)
	d := traceEngine(w.Eng)
	t1 := time.Now()
	res := w.Run(maxRounds(s))
	tr.add(d, build, time.Since(t1))
	return res, nil
}

// maxRounds is the round cap Scenario.Run applies.
func maxRounds(s experiment.Scenario) uint64 {
	if s.MaxRounds == 0 {
		return 50_000_000
	}
	return s.MaxRounds
}

// warmReads is what the warm-read loop of measureSweepLayer cost: Go
// runtime work, and its CPU time with per-read timers (traced) and
// through plain sequential sweep.Run calls (untraced).
type warmReads struct {
	mem              memDelta
	traced, untraced time.Duration
}

// measureSweepLayer sets the sweep.* metrics, timed over a warm cache
// holding every cell of the matrix grid at o's seed: rendering the
// grid into cells, rendering keys, single cache reads, and whole warm
// sweep.Run calls (one request's worth of sweep work). Every read must
// return want.
func measureSweepLayer(e *env, o experiment.Options, cache *sweep.Cache, want []core.Result) (warmReads, error) {
	const reps = 30
	o.Workers = 1 // as the server renders cells
	var grid, keys, gets, runs []float64
	var cells []sweep.Cell
	for i := 0; i < reps; i++ {
		t := time.Now()
		cells = matrixCells(o)
		grid = append(grid, millis(time.Since(t)))
	}
	if len(cells) != len(want) {
		return warmReads{}, fmt.Errorf("grid has %d cells, want %d", len(cells), len(want))
	}
	var bytes int64
	for _, c := range cells {
		fi, err := os.Stat(cache.EntryPath(c.Key))
		if err != nil {
			return warmReads{}, err
		}
		bytes += fi.Size()
	}

	// The traced pass times every read; the same reads through one
	// sequential sweep.Run are its untraced twin.
	var cost warmReads
	var stats sweep.Stats
	before := readMem()
	for i := 0; i < reps; i++ {
		m := startSpan()
		ok := true
		for j, c := range cells {
			t := time.Now()
			r, hit := cache.Get(c.Key)
			gets = append(gets, micros(time.Since(t)))
			ok = ok && hit && r == want[j]
		}
		cost.traced += m.end().CPU
		e.check(boolErr(ok, "warm cache reads differ from the stored results"))

		m = startSpan()
		sweep.Run(cells, sweep.Config{Cache: cache, Workers: 1})
		cost.untraced += m.end().CPU

		t := time.Now()
		got := sweep.Run(cells, sweep.Config{Cache: cache, Stats: &stats})
		runs = append(runs, millis(time.Since(t)))
		e.check(boolErr(slices.Equal(got, want), "warm sweep.Run differs from the stored results"))
	}
	cost.mem = memSince(before)
	for i := 0; i < reps; i++ {
		for _, c := range cells {
			t := time.Now()
			_ = c.Key.String()
			_ = c.Key.ID()
			keys = append(keys, micros(time.Since(t)))
		}
	}
	e.set("sweep.grid_ms_p50", median(grid))
	e.set("sweep.key_us_p50", median(keys))
	e.set("sweep.get_us_p50", median(gets))
	e.set("sweep.run_ms_p50", median(runs))
	e.set("sweep.cache_bytes_per_req", float64(bytes))
	e.set("sweep.hit_ratio", float64(stats.Hits())/float64(stats.Hits()+stats.Executed()))
	e.set("sweep.errors", float64(stats.Errors()))
	return cost, nil
}

// boolErr turns a failed condition into an error.
func boolErr(ok bool, msg string) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%s", msg)
}
