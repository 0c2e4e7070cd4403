//go:build unix

package main

import (
	"syscall"
	"time"
)

// preciseSleep blocks the calling thread for d. The runtime's own timers
// wake an idle process only at millisecond granularity, which an open-loop
// generator would bill to the system as latency; the kernel's do better.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only means another lap of waitUntil
}
