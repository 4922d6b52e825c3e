//go:build !linux

package core

import "time"

// Sleep pauses the calling goroutine for at least d. Only Linux has the
// timerfd path (sleep_linux.go); elsewhere it is time.Sleep.
func Sleep(d time.Duration) { time.Sleep(d) }
