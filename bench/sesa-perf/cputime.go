package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU returns the CPU time the calling OS thread has consumed. The
// benchmark locks its goroutine to one thread and runs every measured job
// on it, so differences of threadCPU are the jobs' own CPU time. Unlike wall
// time it leaves out time the hypervisor steals from the vCPU: on a shared
// host that steal comes in bursts lasting minutes and has stretched the
// same job's wall time by 2x.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// refNominal is hostRef on the host the baseline was recorded on (a 2-vCPU
// Intel Xeon guest): the fastest of 147 readings taken over four minutes.
const refNominal = 5800 * time.Microsecond

// hostRef times the host-speed reference in CPU time: the geometric mean of
// the reference loops' times, each the best of three runs after a warm-up
// run. CPU time still stretches when neighbours on the shared host slow the
// vCPU, by up to 1.9x in episodes lasting minutes, and no one loop slows
// down just as the simulator does: the hash-map loop alone has sped up by a
// third while the simulator's speed held. In two probes of 4 and 12
// minutes, dividing the simulator's CPU time by the two loops' geometric
// mean cut its run-to-run spread by a sixth, more than the hash-map loop
// alone and about as much as the sort alone. A pointer chase through
// 64 MiB, tried as a third loop, helped in one probe and hurt in the
// other. The benchmark scales every end-to-end time by refNominal over the
// run's median hostRef (see hostScale).
func hostRef() time.Duration {
	logSum := 0.0
	for _, loop := range refLoops {
		loop() // warm the caches the loop uses
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := threadCPU()
			loop()
			best = min(best, threadCPU()-start)
		}
		logSum += math.Log(float64(best))
	}
	return time.Duration(math.Exp(logSum / float64(len(refLoops))))
}

// refLoops are the reference work. Each takes a few milliseconds and belongs
// to the benchmark, so no change to the simulator moves it.
var refLoops = []func(){refMapLoop, refSortLoop}

// refMap is refMapLoop's table, allocated once so that the loop's time
// includes no page faults.
var refMap = make(map[uint64]uint64, 1<<14)

// refMapLoop inserts into and looks up a hash map of up to 16,384 keys
// under a pseudo-random key stream, branching on what it finds.
func refMapLoop() {
	m := refMap
	clear(m)
	x := uint64(1)
	for j := 0; j < 200_000; j++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := x >> 50
		if v, ok := m[k]; ok && v&1 == 0 {
			m[k] = v + x
		} else {
			m[k] = x
		}
	}
	sink += uint64(len(m))
}

// refSort is refSortLoop's buffer, allocated once.
var refSort = make([]int, 50_000)

// refSortLoop fills refSort from a pseudo-random stream and sorts it.
func refSortLoop() {
	x := uint64(7)
	for i := range refSort {
		x = x*6364136223846793005 + 1442695040888963407
		refSort[i] = int(x >> 20)
	}
	sort.Ints(refSort)
}

// busy keeps the calling thread running for d of CPU time, so that a
// measurement which follows does not start on a core waking from idle.
func busy(d time.Duration) {
	for end := threadCPU() + d; threadCPU() < end; {
	}
}
