package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"authradio/internal/core"
	"authradio/internal/sweep"
)

// The serve workload is `rbexp serve` on a fresh cache. Set-up starts
// the server and fills the cache with one cold POST /sweep of the
// matrix grid; the timed phase is a closed loop of serveClients
// connections, each resubmitting the same grid, which the server now
// answers from the cache without simulating anything. The loop runs in
// phases of about servePhase, with the reference (serveRef) measured
// between them while the server is idle.

const (
	serveSetups  = 2
	serveClients = 2
	serveCells   = 98 // matrix grid cells at the default preset
	servePhase   = 500 * time.Millisecond
)

// cellLine is one streamed result line of POST /sweep.
type cellLine struct {
	I      int         `json:"i"`
	Label  string      `json:"label"`
	ID     string      `json:"id"`
	Key    string      `json:"key"`
	Cached bool        `json:"cached"`
	Result core.Result `json:"result"`
}

// doneLine is the trailer closing the stream.
type doneLine struct {
	Done     bool   `json:"done"`
	Cells    int    `json:"cells"`
	Executed uint64 `json:"executed"`
	Hits     uint64 `json:"hits"`
	Errors   uint64 `json:"errors"`
}

// sweepResponse is a parsed POST /sweep answer: lines indexed by cell.
type sweepResponse struct {
	lines []cellLine
	done  doneLine
}

// server is one running `rbexp serve` process.
type server struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait has returned
	base   string        // http://127.0.0.1:port
	cache  string
	log    string // the server's standard error
}

// buildRbexp compiles cmd/rbexp into dir.
func buildRbexp(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "rbexp")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/rbexp")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/rbexp: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer runs the server on a fresh cache directory under dir and
// waits until /healthz answers. The server dies with this process
// (Pdeathsig); the caller stops it with stop.
func startServer(ctx context.Context, bin, dir string) (*server, error) {
	cache, err := os.MkdirTemp(dir, "cache-")
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, cache: cache, log: cache + ".log", exited: make(chan struct{})}
	logf, err := os.Create(s.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	s.cmd = exec.Command(bin, "serve", "-addr", addr, "-cache", cache)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS=1") // see cpu.go
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			err := s.failure("server exited before answering /healthz")
			s.stop()
			return nil, err
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			err := s.failure("server did not answer /healthz within 30s")
			s.stop()
			return nil, err
		}
	}
}

// kill stops the server process and waits until it has exited. It is
// safe to call more than once.
func (s *server) kill() {
	s.cmd.Process.Kill() // an error means it has already exited
	<-s.exited
}

// stop kills the server and removes its cache and log.
func (s *server) stop() {
	s.kill()
	os.RemoveAll(s.cache)
	os.Remove(s.log)
}

// failure is an error carrying the server's standard error.
func (s *server) failure(msg string) error {
	log, _ := os.ReadFile(s.log)
	return fmt.Errorf("%s; server stderr:\n%s", msg, log)
}

// postSweep submits the matrix grid at seed and returns the body.
func postSweep(c *http.Client, base string, seed uint64) ([]byte, error) {
	body := fmt.Sprintf(`{"exp":"matrix","seed":%d}`, seed)
	resp, err := c.Post(base+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /sweep: status %d: %s", resp.StatusCode, out)
	}
	return out, nil
}

// parseSweep parses a POST /sweep body: one line per cell in
// completion order, then the trailer.
func parseSweep(body []byte) (sweepResponse, error) {
	out := sweepResponse{lines: make([]cellLine, serveCells)}
	seen := make([]bool, serveCells)
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		if out.done.Done {
			return out, fmt.Errorf("POST /sweep: data after the trailer")
		}
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &out.done); err != nil {
				return out, fmt.Errorf("POST /sweep: bad trailer: %v", err)
			}
			continue
		}
		var l cellLine
		if err := json.Unmarshal(line, &l); err != nil {
			return out, fmt.Errorf("POST /sweep: bad line: %v", err)
		}
		if l.I < 0 || l.I >= serveCells || seen[l.I] {
			return out, fmt.Errorf("POST /sweep: unexpected or repeated cell %d", l.I)
		}
		seen[l.I] = true
		out.lines[l.I] = l
	}
	if !out.done.Done {
		return out, fmt.Errorf("POST /sweep: stream ended without a trailer")
	}
	for i, ok := range seen {
		if !ok {
			return out, fmt.Errorf("POST /sweep: cell %d missing", i)
		}
	}
	return out, nil
}

// sortedLines returns a body's lines in sorted order: two streams that
// carry the same lines in different completion orders compare equal.
func sortedLines(body []byte) string {
	lines := strings.Split(string(body), "\n")
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// checkTrailer compares a trailer with the counts a request must show.
func checkTrailer(d doneLine, executed, hits uint64) error {
	want := doneLine{Done: true, Cells: serveCells, Executed: executed, Hits: hits}
	if d != want {
		return mismatch("POST /sweep trailer", d, want)
	}
	return nil
}

// sameLines compares two responses line by line, the cached flag
// aside.
func sameLines(got, want sweepResponse) error {
	for i, l := range got.lines {
		w := want.lines[i]
		w.Cached = l.Cached
		if l != w {
			return mismatch(fmt.Sprintf("line %d", i), l, w)
		}
	}
	return nil
}

// checkWarm checks a warm response: served wholly from the cache, and
// equal to the cold one.
func checkWarm(got, cold sweepResponse) error {
	if err := checkTrailer(got.done, 0, serveCells); err != nil {
		return err
	}
	for i, l := range got.lines {
		if !l.Cached {
			return fmt.Errorf("warm line %d not served from the cache", i)
		}
	}
	return sameLines(got, cold)
}

// serveSession is a warm server ready for the timed phase.
type serveSession struct {
	dir    string
	srv    *server
	cold   sweepResponse
	setups []span // wall time, the server's CPU time and the kernel's
	// warm is the sorted lines of a warm response checked line by line
	// against cold; the timed phase compares every response with it
	// byte for byte, which keeps the client's own work small.
	warm string
}

// close stops the server and removes every file of the session.
func (s *serveSession) close() {
	if s.srv != nil {
		s.srv.stop()
	}
	os.RemoveAll(s.dir)
}

// openServe builds the server binary and sets it up n times, each on a
// fresh process and cache; the last server stays up. Every cold
// response must execute every cell and agree with the first one, and
// at seed 1 the tables rendered from the warm cache must equal the
// golden document.
func openServe(ctx context.Context, e *env, n int) (*serveSession, error) {
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	ss := &serveSession{dir: dir}
	bin, err := buildRbexp(ctx, e.root, dir)
	if err != nil {
		ss.close()
		return nil, err
	}
	if err := pinProcess(); err != nil {
		ss.close()
		return nil, err
	}
	client := &http.Client{}
	for i := 0; i < n; i++ {
		if ss.srv != nil {
			ss.srv.stop()
			ss.srv = nil
		}
		refs := []time.Duration{idleRef()}
		t := time.Now()
		srv, err := startServer(ctx, bin, dir)
		if err != nil {
			ss.close()
			return nil, err
		}
		ss.srv = srv
		stopSampling := sampleRef(&refs)
		body, err := postSweep(client, srv.base, e.seed)
		d := time.Since(t)
		stopSampling()
		var cold sweepResponse
		if err == nil {
			cold, err = parseSweep(body)
		}
		if err != nil {
			err = srv.failure(err.Error())
		}
		if err == nil {
			err = checkTrailer(cold.done, serveCells, 0)
		}
		if err == nil && ss.cold.done.Done {
			err = sameLines(cold, ss.cold)
		}
		if !e.check(err) {
			srv.stop()
			ss.srv = nil
			continue
		}
		cpu, err := procCPU(srv.cmd.Process.Pid)
		if err != nil {
			err = srv.failure(err.Error())
			ss.close()
			return nil, err
		}
		refs = append(refs, idleRef())
		ss.setups = append(ss.setups, span{Wall: d, CPU: cpu, Ref: medianDuration(refs)})
		ss.cold = cold
	}
	if ss.srv == nil {
		ss.close()
		return nil, errMissing
	}
	body, err := postSweep(client, ss.srv.base, e.seed)
	if err == nil {
		err = ss.verifyWarm(body)
	}
	if !e.check(err) {
		ss.close()
		return nil, err
	}
	ss.warm = sortedLines(body)
	if e.seed == 1 {
		e.check(ss.checkGolden(client, e.root))
	}
	return ss, nil
}

// verifyWarm parses a warm response and checks it against the cold
// one.
func (s *serveSession) verifyWarm(body []byte) error {
	got, err := parseSweep(body)
	if err != nil {
		return err
	}
	return checkWarm(got, s.cold)
}

// checkGolden compares GET /tables/matrix with the golden document.
func (s *serveSession) checkGolden(c *http.Client, root string) error {
	golden, err := readGolden(root)
	if err != nil {
		return err
	}
	resp, err := c.Get(s.srv.base + "/tables/matrix?seed=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /tables/matrix: status %d", resp.StatusCode)
	}
	return sameDoc("GET /tables/matrix vs golden", string(doc), golden)
}

// loopResult is what the closed loop measured: the latencies of the
// requests that passed their checks, the phase's wall time, and the
// CPU time the server spent in it.
type loopResult struct {
	lat       []float64 // ms
	wall, cpu time.Duration
}

// closedLoop runs serveClients clients, each resubmitting the grid
// until length has passed.
func (s *serveSession) closedLoop(ctx context.Context, e *env, length time.Duration) (loopResult, error) {
	cpu0, err := procCPU(s.srv.cmd.Process.Pid)
	if err != nil {
		return loopResult{}, err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()
	type clientLog struct {
		tally
		lat []float64
	}
	logs := make([]clientLog, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range logs {
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			for time.Since(start) < length && ctx.Err() == nil {
				t := time.Now()
				body, err := postSweep(client, s.srv.base, e.seed)
				d := time.Since(t)
				if err == nil && sortedLines(body) != s.warm {
					if err = s.verifyWarm(body); err == nil {
						err = fmt.Errorf("warm response differs from the first warm response")
					}
				}
				if l.check(err) {
					l.lat = append(l.lat, millis(d))
				}
			}
		}(&logs[i])
	}
	wg.Wait()
	res := loopResult{wall: time.Since(start)}
	cpu1, err := procCPU(s.srv.cmd.Process.Pid)
	if err != nil {
		return res, s.srv.failure(err.Error())
	}
	res.cpu = cpu1 - cpu0
	failed := 0
	for _, l := range logs {
		e.attempted += l.attempted
		e.failed += l.failed
		e.errs = append(e.errs, l.errs...)
		res.lat = append(res.lat, l.lat...)
		failed += l.failed
	}
	if failed > 0 {
		e.errs = append(e.errs, s.srv.failure(fmt.Sprintf("%d warm requests failed", failed)).Error())
	}
	return res, nil
}

// runServe measures the warm closed loop in phases: each phase's
// server CPU time per warm request, against the reference measured
// right before and right after it.
func runServe(ctx context.Context, e *env) error {
	ss, err := openServe(ctx, e, serveSetups)
	if err != nil {
		return err
	}
	defer ss.close()
	n := max(1, int(e.seconds/servePhase))
	files, err := writeRefFiles(ss.dir)
	if err != nil {
		return err
	}
	var phases []span
	ref, err := serveRef(files)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		loop, err := ss.closedLoop(ctx, e, e.seconds/time.Duration(n))
		if err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		before := ref
		if ref, err = serveRef(files); err != nil {
			return err
		}
		if len(loop.lat) == 0 {
			continue
		}
		phases = append(phases, span{
			Wall: time.Duration(median(loop.lat) * float64(time.Millisecond)),
			CPU:  loop.cpu / time.Duration(len(loop.lat)),
			Ref:  (before + ref) / 2,
		})
	}
	if len(phases) == 0 {
		return errMissing
	}
	e.setSetup(ss.setups)
	e.setOps(phases)
	return nil
}

// The serve workload's reference adds file reads to the kernel. A warm
// request is mostly system calls — the socket, and one open, read and
// close per cached cell — which the kernel of ref.go does not make and
// which the host slows in its own way. Over 45 one-second phases of the
// loop, the server's CPU time per request spread by 0.132 (coefficient
// of variation) raw, 0.136 in kernel calls, 0.108 in units of the file
// reads alone and 0.090 in units of both.
const (
	refFileBytes  = 540 // about a cached cell's document
	refFilePasses = 5   // reads of every file per reference call
)

// writeRefFiles writes the files the reference reads under dir: one
// small document per matrix cell, as the cache holds, but written by
// the benchmark so that the program cannot change them.
func writeRefFiles(dir string) ([]string, error) {
	dir = filepath.Join(dir, "ref")
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	doc := bytes.Repeat([]byte{'x'}, refFileBytes)
	files := make([]string, serveCells)
	for i := range files {
		files[i] = filepath.Join(dir, fmt.Sprintf("%02d.json", i))
		if err := os.WriteFile(files[i], doc, 0o644); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// idleRef measures the plain reference kernel while the server is
// idle, after collecting this process's garbage, for the set-ups: a
// cold fill simulates, as the other workloads do.
func idleRef() time.Duration {
	runtime.GC()
	return refCPU(refCalls)
}

// refSampleEvery is how often sampleRef calls the kernel.
const refSampleEvery = 250 * time.Millisecond

// sampleRef calls the kernel every refSampleEvery and appends its CPU
// time to refs until the returned stop is called. A cold fill runs for
// seconds in the server; this process is pinned to the server's CPU
// and otherwise only waits for the response, so the samples follow the
// host's speed through the fill at a cost of about 2% of the CPU.
func sampleRef(refs *[]time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(refSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				*refs = append(*refs, refCPU(1))
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// medianDuration returns the median of ds, which it sorts.
func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// serveRef measures the reference between two phases of the loop: the
// median over refCalls of one kernel call plus refFilePasses reads of
// every file. The clients' garbage is collected first, so that the
// collector does not run inside the measurement.
func serveRef(files []string) (time.Duration, error) {
	runtime.GC()
	refInit()
	ds := make([]time.Duration, refCalls)
	for i := range ds {
		c := cpuTime()
		refKernel()
		for p := 0; p < refFilePasses; p++ {
			for _, f := range files {
				b, err := os.ReadFile(f)
				if err != nil {
					return 0, err
				}
				refSink += uint64(len(b))
			}
		}
		ds[i] = cpuTime() - c
	}
	slices.Sort(ds)
	return ds[refCalls/2], nil
}

// traceServe runs the closed loop once more for the request tail, then
// times the sweep layer in process over the server's warm cache.
func traceServe(ctx context.Context, e *env) error {
	zeroLayers(e)
	ss, err := openServe(ctx, e, 1)
	if err != nil {
		return err
	}
	defer ss.close()
	loop, err := ss.closedLoop(ctx, e, e.seconds)
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	lat := loop.lat
	ss.srv.kill() // the in-process timing reads the cache undisturbed
	e.set("proc.peak_rss_mb", peakRSS(ss.srv.cmd.ProcessState))
	cache, err := sweep.Open(ss.srv.cache)
	if err != nil {
		return err
	}
	want := make([]core.Result, serveCells)
	for i, l := range ss.cold.lines {
		want[i] = l.Result
	}
	reads, err := measureSweepLayer(e, matrixOptions(e.seed), cache, want)
	if err != nil {
		return err
	}
	reads.mem.report(e)
	reportOverhead(e, reads.traced, reads.untraced)
	e.set("experiment.cells", serveCells)
	v, pct := tail(lat)
	e.set("op.tail_ms", v)
	e.set("op.tail_pct", pct)
	e.set("op.samples", float64(len(lat)))
	e.set("wall.op_ms_p50", median(lat))
	e.set("wall.ops_per_s", float64(len(lat))/loop.wall.Seconds())
	e.set("serve.http_ms_p50", median(lat)-e.metrics["sweep.grid_ms_p50"].Value-e.metrics["sweep.run_ms_p50"].Value)
	return nil
}
