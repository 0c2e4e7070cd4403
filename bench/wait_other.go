//go:build !unix

package main

import "time"

// preciseSleep blocks for d with the best timer this platform offers.
func preciseSleep(d time.Duration) { time.Sleep(d) }
