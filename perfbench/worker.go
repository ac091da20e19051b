package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"authradio/internal/core"
	"authradio/internal/experiment"
	"authradio/internal/sweep"
)

// The sweep and broadcast workloads run each operation in a fresh
// child process of this binary, so the deployment and schedule caches
// start cold as they do for a command-line user, and the child's peak
// resident memory is the operation's own.

// workerArg as the first argument selects worker mode.
const workerArg = "worker"

// workerReport is what a child prints on its standard output.
type workerReport struct {
	Op      span          // the timed operation
	Build   span          // world construction before it (broadcast)
	JSON    string        // the rendered sweep document (sweep-ref)
	Results []core.Result // per-cell results, or the broadcast's
	// CellWall is each cell's wall time, for untraced replays.
	CellWall []time.Duration
	Trace    *layerTrace // set by traced children
	Mem      memDelta
	// HeapPerDevice is the live heap after the world was built,
	// divided by its devices (broadcast only).
	HeapPerDevice float64
}

// memDelta is the Go runtime's allocation work over a timed section.
type memDelta struct {
	Mallocs, AllocBytes uint64
	GCs                 uint32
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		Mallocs:    after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		GCs:        after.NumGC - before.NumGC,
	}
}

func (m memDelta) report(e *env) {
	e.set("go.mallocs", float64(m.Mallocs))
	e.set("go.alloc_mb", float64(m.AllocBytes)/(1<<20))
	e.set("go.gc_cycles", float64(m.GCs))
}

// workerMain runs one child operation and prints its report.
func workerMain(args []string) int {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	kind := fs.String("kind", "", "sweep-ref, cells or broadcast")
	seed := fs.Uint64("seed", 1, "input seed")
	traced := fs.Bool("traced", false, "install the traced round driver")
	fs.Parse(args)

	var rep workerReport
	var err error
	switch *kind {
	case "sweep-ref":
		rep, err = referenceSweep(*seed)
	case "cells":
		rep, err = replayCells(*seed, *traced)
	case "broadcast":
		rep, err = oneBroadcast(*seed, *traced)
	default:
		err = fmt.Errorf("unknown worker kind %q", *kind)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

// childRun is a finished child: its report and peak resident memory.
type childRun struct {
	workerReport
	PeakRSS float64 // MB
}

// runWorker runs one child to completion. The child dies with the
// parent (Pdeathsig) and is killed when ctx ends; a failed child's
// standard error is part of the returned error.
func runWorker(ctx context.Context, args ...string) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.CommandContext(ctx, self, append([]string{workerArg}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("worker %v: %v\n%s", args, err, stderr.Bytes())
	}
	var out childRun
	if err := json.Unmarshal(stdout.Bytes(), &out.workerReport); err != nil {
		return childRun{}, fmt.Errorf("worker %v: bad report: %v", args, err)
	}
	out.PeakRSS = peakRSS(cmd.ProcessState)
	return out, nil
}

// checkedWorkers runs children with args for as long as more(n) holds,
// n being the number run so far, and returns those whose report passes
// check. Every child is one attempted operation.
func checkedWorkers(ctx context.Context, e *env, more func(n int) bool, check func(childRun) error, args ...string) ([]childRun, error) {
	var passed []childRun
	for n := 0; more(n); n++ {
		c, err := runWorker(ctx, args...)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err == nil {
			err = check(c)
		}
		if e.check(err) {
			passed = append(passed, c)
		}
	}
	if len(passed) == 0 {
		return nil, errMissing
	}
	return passed, nil
}

// forRun is a checkedWorkers condition: go on until the run's length
// has passed.
func forRun(e *env) func(int) bool {
	start := time.Now()
	return func(int) bool { return time.Since(start) < e.seconds }
}

// peakRSS returns a finished process's peak resident set in MB.
func peakRSS(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// selfPeakRSS returns this process's peak resident set in MB.
func selfPeakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// matrixOptions are the options of `rbexp -exp matrix -json -seed n`.
func matrixOptions(seed uint64) experiment.Options {
	return experiment.Options{Seed: seed}
}

// renderMatrix runs the matrix experiment with o and returns its JSON
// document, byte for byte what `rbexp -exp matrix -json` prints.
func renderMatrix(o experiment.Options) (string, error) {
	var buf bytes.Buffer
	tables := experiment.Registry()["matrix"](o)
	if err := experiment.WriteJSON(&buf, "matrix", o, tables); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// referenceSweep computes the same document by another route: every
// matrix cell runs single-threaded, cells run in parallel through one
// sweep.Run into a fresh cache (as `rbexp serve` fills it), and the
// tables are then rendered from that cache.
func referenceSweep(seed uint64) (workerReport, error) {
	dir, err := os.MkdirTemp("", "perfbench-ref-")
	if err != nil {
		return workerReport{}, err
	}
	defer os.RemoveAll(dir)
	cache, err := sweep.Open(dir)
	if err != nil {
		return workerReport{}, err
	}
	var meter refMeter
	m := startSpan()
	meter.start()
	o := matrixOptions(seed)
	o.Workers = 1
	var stats sweep.Stats
	// One pool worker (GOMAXPROCS is 1), so the cells end one at a
	// time and each ends a meter step.
	results := sweep.Run(matrixCells(o), sweep.Config{Cache: cache, Stats: &stats,
		OnCell: func(int, sweep.Cell, core.Result, bool) { meter.step() }})
	if stats.Errors() > 0 {
		return workerReport{}, fmt.Errorf("reference fill: %d cache write errors", stats.Errors())
	}
	o = matrixOptions(seed)
	o.Cache = cache
	doc, err := renderMatrix(o)
	meter.step()
	return workerReport{Op: meter.span(m.end()), JSON: doc, Results: results}, err
}

// matrixCells renders the matrix grid into its sweep cells.
func matrixCells(o experiment.Options) []sweep.Cell {
	scens, reps := experiment.MatrixGrid(o, nil, nil)
	var cells []sweep.Cell
	for _, s := range scens {
		cells = append(cells, experiment.SweepCells(s, o, reps)...)
	}
	return cells
}
