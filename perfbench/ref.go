package main

import (
	"slices"
	"sync"
	"time"
)

// The end-to-end operation metric is not a raw CPU time. On the shared
// hosts this benchmark runs on, the CPU time of the same deterministic
// work moves by a third between runs minutes apart (a 65k-device dense
// round took 32 ms on one host and 60–80 ms on another, with the steal
// time already excluded): neighbours on sibling hyperthreads, shared
// caches and turbo frequencies all change how fast a guest CPU runs.
// So every operation is timed next to a fixed reference kernel, on the
// same CPU and in the same process, and reported in units of that
// kernel's CPU time. A host that runs everything 1.4× slower slows the
// kernel alike and leaves the ratio where it was; a change to the
// program under test moves only the operation.
//
// The kernel belongs to the benchmark and never changes with the
// program. It sorts 8192 pseudo-random integers (data-dependent
// branches the predictor keeps missing) and makes 131072 lookups in a
// 32768-entry hash map (hashing, probing and cache misses over about a
// megabyte), about 4 ms of one CPU per call on the hosts it was tuned
// on. A simulated round is branchy code over maps and arrays of that
// size. README.md gives the measurements that chose this kernel over
// plain arithmetic, cache-resident and main-memory reads, and interface
// dispatch. The kernel does not allocate, so it never makes the garbage
// collector scan the program's heap.

const (
	refSortLen    = 1 << 13 // integers sorted per call
	refMapLen     = 1 << 15 // map entries
	refMapLookups = 1 << 17 // lookups per call
	// refCalls is how many calls measure the kernel next to a serve
	// phase or a set-up.
	refCalls = 5
	// refNominal is the kernel's CPU time per call on the 2-vCPU host
	// the benchmark was tuned on (3.3–4.9 ms over one session).
	// setup_s must be in seconds, so set-up times are reported at that
	// speed: CPU time ÷ the kernel's time next to it × refNominal.
	refNominal = 4 * time.Millisecond
)

var (
	refOnce    sync.Once
	refInts    []uint32 // the input of every sort
	refSortBuf []uint32
	refMap     map[uint64]uint64
)

// refInit builds the kernel's inputs on first use, so processes that
// never call the kernel do not pay for them.
func refInit() {
	refOnce.Do(func() {
		refInts = make([]uint32, refSortLen)
		x := uint64(0x2545F4914F6CDD1D)
		for i := range refInts {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			refInts[i] = uint32(x)
		}
		refSortBuf = make([]uint32, refSortLen)
		refMap = make(map[uint64]uint64, refMapLen)
		for i := uint64(0); i < refMapLen; i++ {
			refMap[i*refKeyMul] = i
		}
	})
}

// refKeyMul spreads the map's keys over 64 bits.
const refKeyMul = 0x9E3779B97F4A7C15

// refSink keeps the kernel's results alive so the compiler cannot drop
// the work.
var refSink uint64

// refKernel is one call of the reference kernel.
func refKernel() {
	copy(refSortBuf, refInts)
	slices.Sort(refSortBuf)
	sum := uint64(refSortBuf[refSortLen/2])
	x := uint64(1)
	for i := 0; i < refMapLookups; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += refMap[(x>>49)*refKeyMul] // x>>49 < refMapLen: always a hit
	}
	refSink += sum
}

// refCPU returns the median CPU time of n calls of the reference
// kernel.
func refCPU(n int) time.Duration {
	refInit()
	ds := make([]time.Duration, n)
	for i := range ds {
		c := cpuTime()
		refKernel()
		ds[i] = cpuTime() - c
	}
	slices.Sort(ds)
	return ds[n/2]
}

// refMeter measures an operation too long to be timed against one
// reference measurement: the host's speed changes within seconds. The
// operation is cut into steps (a sweep's cells, a broadcast's rounds in
// groups), a kernel call follows every step, and each step's CPU time
// is counted in units of the call right after it.
type refMeter struct {
	last  time.Duration // CPU clock when the current step began
	units float64       // the steps' CPU time in reference calls
	cpu   time.Duration // the steps' CPU time
	extra time.Duration // CPU time of the calls
}

// start begins the first step.
func (m *refMeter) start() {
	refInit()
	m.last = cpuTime()
}

// step ends the current step, calls the kernel, and begins the next.
func (m *refMeter) step() {
	c0 := cpuTime()
	refKernel()
	c1 := cpuTime()
	m.units += float64(c0-m.last) / float64(c1-c0)
	m.cpu += c0 - m.last
	m.extra += c1 - c0
	m.last = c1
}

// span returns the operation's span from the span s that enclosed
// it: the kernel's time is taken out, and Ref is set so that CPU ÷
// Ref is the steps' total in reference calls.
func (m *refMeter) span(s span) span {
	s.Wall -= m.extra
	s.CPU = m.cpu
	s.Ref = time.Duration(float64(m.cpu) / m.units)
	return s
}
