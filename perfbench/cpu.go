package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Timings are CPU time, not wall time. On a shared virtual machine the
// host deschedules the guest's CPUs for minutes at a time (steal time
// measured from 1% to 19% of the CPUs within one hour on the 2-vCPU
// machine this benchmark was tuned on), and wall time follows the host:
// the same matrix sweep took 8.8 s and 16.4 s. The kernel accounts
// steal separately from a process's user and system time. Every
// process that does measured work runs its Go code on one CPU
// (GOMAXPROCS=1): with more, the engine's in-round workers and the
// garbage collector hand goroutines between CPUs every round, and the
// runtime's spinning while it looks for work is CPU time that depends
// on the host's timing, not on the program. ref.go takes out what is
// left of the host's speed. Wall times are kept in the traced run's
// per-layer metrics.

// span is a timed section: its wall time and the CPU time (user +
// system, all threads) this process spent in it. Ref, when set, is the
// CPU time of one reference-kernel call measured next to it.
type span struct {
	Wall, CPU, Ref time.Duration
}

// mark is the start of a span.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

func startSpan() mark { return mark{time.Now(), cpuTime()} }

func (m mark) end() span { return span{Wall: time.Since(m.wall), CPU: cpuTime() - m.cpu} }

// cpuTime returns the CPU time this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat, fixed at
// 100 per second for user space on Linux.
const userHZ = 100

// procCPU returns the CPU time another process has used so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from
	// the last ')'. utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks uint64
	for _, x := range f[11:13] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %v", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * (time.Second / userHZ), nil
}

// cpuMask is a Linux CPU affinity mask (1024 CPUs).
type cpuMask [16]uint64

// pinProcess restricts every thread of this process to one CPU, the
// first it may run on; processes it starts afterwards inherit that.
// The serve workload needs it because its work runs in the server
// process and its reference kernel in this one: on two vCPUs of a
// shared host they would be timed on two cores of different speeds.
func pinProcess() error {
	var allowed cpuMask
	size := unsafe.Sizeof(allowed)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %v", e)
	}
	var one cpuMask
	for i, w := range allowed {
		if w != 0 {
			one[i] = 1 << bits.TrailingZeros64(w)
			break
		}
	}
	// Twice, in case the runtime started a thread from an unpinned one
	// during the first pass.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %v", e)
			}
		}
	}
	return nil
}
