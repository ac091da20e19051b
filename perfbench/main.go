// Command perfbench is the repository benchmark. It runs one of four
// workloads — the matrix sweep, one large NeighborWatchRB broadcast,
// the 65k-device dense round, and the warm sweep service — checks
// every operation's output, and prints one JSON result line:
//
//	perfbench -root . -workload dense -seed 1 -seconds 12 -trace 0
//
// With -trace 0 the line carries the end-to-end metrics; with -trace 1
// a separate traced run carries the per-layer metrics. README.md
// explains the workloads and what each metric means on each of them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"

	_ "authradio/internal/protocols"
)

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(context.Context, *env) error
}{
	"sweep":     {runSweep, traceSweep},
	"broadcast": {runBroadcast, traceBroadcast},
	"dense":     {runDense, traceDense},
	"serve":     {runServe, traceServe},
}

// env is what one benchmark invocation shares with its workload: the
// parsed flags, the failure tally and the metrics being collected.
type env struct {
	root    string
	seed    uint64
	seconds time.Duration
	tally
	metrics map[string]metric
	// notes are raw CPU and wall-clock figures printed for a human
	// before the result line, but not part of it.
	notes map[string]float64
}

// set records metric name, whose unit comes from the declared lists.
func (e *env) set(name string, v float64) {
	e.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// setSetup sets setup_s, the median over the set-ups of each one's CPU
// time at the reference speed (ref.go), and notes the medians of the
// raw CPU and wall times.
func (e *env) setSetup(setups []span) {
	e.set("setup_s", medianOf(setups, func(s span) float64 { return seconds(refNominal) * float64(s.CPU) / float64(s.Ref) }))
	e.notes["setup_cpu_s"] = medianOf(setups, func(s span) float64 { return seconds(s.CPU) })
	e.notes["wall.setup_s"] = medianOf(setups, func(s span) float64 { return seconds(s.Wall) })
}

// setOps sets op_ref, the median over the operations of each one's CPU
// time in reference-kernel calls, and notes the medians of the raw CPU
// times, the kernel's and the wall times.
func (e *env) setOps(ops []span) {
	e.set("op_ref", medianOf(ops, func(s span) float64 { return float64(s.CPU) / float64(s.Ref) }))
	e.notes["op_cpu_ms"] = medianOf(ops, func(s span) float64 { return millis(s.CPU) })
	e.notes["ref_kernel_ms"] = medianOf(ops, func(s span) float64 { return millis(s.Ref) })
	e.notes["wall.op_ms_p50"] = medianOf(ops, func(s span) float64 { return millis(s.Wall) })
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// cpu.go explains why measured work runs on one CPU; worker
	// children run this same main.
	runtime.GOMAXPROCS(1)
	if len(os.Args) > 1 && os.Args[1] == workerArg {
		os.Exit(workerMain(os.Args[2:]))
	}
	root := flag.String("root", ".", "repository root (holds go.mod and cmd/rbexp)")
	name := flag.String("workload", "", "workload: sweep, broadcast, dense or serve")
	seed := flag.Uint64("seed", 1, "input seed (>= 1)")
	seconds := flag.Int("seconds", 12, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seed == 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (sweep|broadcast|dense|serve), -seed >= 1, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	e := &env{root: *root, seed: *seed, seconds: time.Duration(*seconds) * time.Second, metrics: map[string]metric{}, notes: map[string]float64{}}
	want, run := endToEnd, w.run
	if *traced == 1 {
		want, run = perLayer, w.trace
	}

	// An interrupt cancels the run so every child process and server
	// is stopped and every scratch directory removed on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, e)
	for _, msg := range e.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", msg)
	}
	if err == nil {
		err = checkMetrics(e.metrics, want)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
	printDiagnostics(e.metrics, e.notes)
	out, err := json.Marshal(result{
		Correct:   e.attempted > 0 && e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   e.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// checkMetrics fails a run that did not produce exactly the declared
// metric set: a workload that forgot a metric is a benchmark bug.
func checkMetrics(got map[string]metric, want []metricSpec) error {
	if len(got) != len(want) {
		return fmt.Errorf("produced %d metrics, want %d", len(got), len(want))
	}
	for _, m := range want {
		if _, ok := got[m.name]; !ok {
			return fmt.Errorf("metric %s missing", m.name)
		}
	}
	return nil
}

// printDiagnostics writes the metrics and notes one per line, ahead of
// the JSON result line, for a human reading the output.
func printDiagnostics(ms map[string]metric, notes map[string]float64) {
	for _, n := range slices.Sorted(maps.Keys(ms)) {
		fmt.Printf("%-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, n := range slices.Sorted(maps.Keys(notes)) {
		fmt.Printf("%-28s %14.6g (not in the result)\n", n, notes[n])
	}
}

// errMissing reports a metric that could not be measured.
var errMissing = errors.New("no successful operation to time")
