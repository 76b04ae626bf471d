//go:build !linux

package main

import "time"

// cpuClocks reports whether this OS gives the per-thread and per-process
// CPU clocks the benchmark measures with; without them it does not run.
const cpuClocks = false

type cpuClock int32

var processClock cpuClock

func currentThreadClock() cpuClock { return 0 }

func (c cpuClock) now() time.Duration { return 0 }

func pinThreads() {}

func pinBusy() {}
