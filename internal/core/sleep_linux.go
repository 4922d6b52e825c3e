//go:build linux

package core

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// clockMonotonic is CLOCK_MONOTONIC, which package syscall does not export.
const clockMonotonic = 1

// Sleep pauses the calling goroutine for at least d. On Linux the Go
// runtime rounds every time.Sleep below a millisecond up to its netpoller's
// 1 ms tick, which is the whole sojourn of a no-op application paced at a
// few thousand QPS. Sleep instead arms a timerfd and reads it through the
// netpoller: the goroutine still parks (no thread is blocked and no core is
// spun), and it wakes at the kernel's hrtimer resolution, a few
// microseconds late. A raw nanosleep would be as precise but blocks the M
// outside the netpoller, which starves the very network goroutines the
// pacer drives. When no timerfd can be had, Sleep falls back to time.Sleep.
func Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t, _ := timerfds.Get().(*timerfd)
	if t != nil {
		if t.sleep(d) == nil {
			timerfds.Put(t)
			return
		}
		t.f.Close()
	}
	time.Sleep(d)
}

// timerfds reuses timers across sleeps so a paced run does not create a
// file per request. A timer the pool drops is closed by the *os.File
// finalizer. New returns an untyped nil when timerfd_create fails.
var timerfds = sync.Pool{New: func() any {
	t, err := newTimerfd()
	if err != nil {
		return nil
	}
	return t
}}

// timerfd is a one-shot CLOCK_MONOTONIC timer registered with the runtime's
// netpoller. The settime argument, its result, the closure that issues it
// and the read buffer live in the struct so that a sleep does not allocate.
type timerfd struct {
	f           *os.File
	rc          syscall.RawConn
	spec        itimerspec
	errno       syscall.Errno
	arm         func(fd uintptr)
	expirations [8]byte
}

// itimerspec mirrors struct itimerspec.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

func newTimerfd() (*timerfd, error) {
	// TFD_NONBLOCK and TFD_CLOEXEC are defined as O_NONBLOCK and O_CLOEXEC.
	// A non-blocking fd is what makes os.NewFile register it with the
	// netpoller.
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	f := os.NewFile(fd, "timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	t := &timerfd{f: f, rc: rc}
	t.arm = func(fd uintptr) {
		_, _, t.errno = syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&t.spec)), 0, 0, 0)
	}
	return t, nil
}

// sleep arms the timer for d and parks until it fires. The fd is reached
// only through Control: os.File.Fd would switch it back to blocking mode
// and take it out of the netpoller.
func (t *timerfd) sleep(d time.Duration) error {
	t.spec.value = syscall.NsecToTimespec(d.Nanoseconds())
	if err := t.rc.Control(t.arm); err != nil {
		return err
	}
	if t.errno != 0 {
		return t.errno
	}
	// The read parks until the timer fires, then returns its 8-byte
	// expiration count.
	_, err := t.f.Read(t.expirations[:])
	return err
}
