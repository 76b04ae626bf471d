package main

import (
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// Linux clock IDs (clock_gettime(2)).
const (
	clockProcessCPU = 2
	clockThreadCPU  = 3
)

// cpuClocks reports whether this OS gives the per-thread and per-process
// CPU clocks the benchmark measures with; without them it does not run.
const cpuClocks = true

// cpuClock is a CPU-time clock: this process's, or one thread's.
type cpuClock int32

var processClock = cpuClock(clockProcessCPU)

// currentThreadClock is the CPU clock of the calling OS thread; it only
// means something while the goroutine stays locked to that thread.
func currentThreadClock() cpuClock {
	// MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED) in the kernel's ABI, so
	// other threads can read it too.
	return cpuClock(^int32(syscall.Gettid())<<3 | 6)
}

// now reads the clock. Time a thread spends descheduled, by this kernel
// or by the hypervisor (steal time), is not CPU time.
func (c cpuClock) now() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(c), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuSet is a sched_setaffinity(2) mask.
type cpuSet [16]uint64

func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

func setAffinity(tid int, cpu int) error {
	var s cpuSet
	s[cpu/64] |= 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return e
	}
	return nil
}

// pinThreads pins every thread of the process to the collector CPU;
// threads created later inherit that.
func pinThreads() {
	var allowed cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return
	}
	var cpus []int
	for c := 0; c < len(allowed)*64 && len(cpus) < 2; c++ {
		if allowed.has(c) {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) < 2 {
		return
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			if setAffinity(tid, cpus[0]) != nil {
				return
			}
		}
	}
	placement.pinned, placement.collector, placement.busy = true, cpus[0], cpus[1]
}

// pinBusy moves the calling thread, which the caller has locked and
// never unlocks, to the busy CPU.
func pinBusy() {
	if placement.pinned {
		setAffinity(0, placement.busy)
	}
}
