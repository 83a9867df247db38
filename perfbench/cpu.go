package main

import (
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID, which the
// syscall package does not name.
const clockProcessCPUTime = 2

// cpuTime returns the CPU time, user plus system, that the process's
// threads have run so far. The kernel counts the time a thread ran, not
// the time it waited for a CPU, whether behind another process or, on a
// guest that accounts steal, behind another machine. So a cost read
// from it holds when the shared host gives the program less CPU, where
// wall-clock figures move. Slower CPUs, as when a busy neighbour shares
// a core or a cache, still raise it; calibrate measures that.
//
// Unlike getrusage, which sees the running thread's time only as of the
// last scheduler tick, clock_gettime counts that thread up to the call,
// so a span of a few milliseconds reads true.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime: " + e.Error()) // fails only on a bad clock id
	}
	return time.Duration(ts.Nano())
}

// timedSetup runs a round's set-up and returns what it built and the
// CPU seconds it took. A collection first keeps the garbage of earlier
// rounds off its clock.
func timedSetup[T any](setup func() (T, error)) (T, float64, error) {
	runtime.GC()
	c0 := cpuTime()
	v, err := setup()
	return v, (cpuTime() - c0).Seconds(), err
}

// refCalibrationMS is the CPU time of one calibration kernel on the
// reference CPU, about what it took on the 2-vCPU development host in
// its faster spells (38 ms). CPU-time metrics are reported as the time
// the same work would take on that CPU.
const refCalibrationMS = 40.0

// The calibration kernel's buffers live outside the Go heap, so they
// count in no heap or allocation figure, and are built once, so their
// page faults fall on no clock.
var (
	calInput = calBuffer(1 << 18) // random keys to sort
	calWork  = calBuffer(1 << 18)
	calTable = calBuffer(1 << 22) // 16 MiB to gather from at random
	calSink  uint32
)

func calBuffer(n int) []uint32 {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("mmap: " + err.Error())
	}
	xs := unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	rng := rand.New(rand.NewSource(int64(n)))
	for i := range xs {
		xs[i] = rng.Uint32()
	}
	return xs
}

// calibrate returns the least CPU time, in ms, of three runs of a fixed
// kernel that, like the program's graph work, sorts, branches and
// gathers from memory at random. The host's CPU speed steps by half
// within minutes (as when a neighbour starts sharing a core), and every
// CPU time the program takes moves with it; this kernel's time moves
// the same way, and no change to the program moves it.
func calibrate() float64 {
	runtime.GC()
	best := time.Duration(1<<63 - 1)
	for range 3 {
		c0 := cpuTime()
		copy(calWork, calInput)
		slices.Sort(calWork)
		h, x := uint32(0), uint32(2463534242)
		for range 1 << 20 {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			h += calTable[x&(1<<22-1)]
		}
		calSink += h + calWork[len(calWork)/2]
		best = min(best, cpuTime()-c0)
	}
	return ms(best)
}
