package clock

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// newWaker makes the loop's wake timer a timerfd, which the runtime poller
// waits on: epoll returns at the hrtimer's expiry, not at its own 1 ms
// timeout. Where the kernel refuses one (no descriptor left, a seccomp
// filter) it falls back to a time.Timer.
func newWaker(fire func()) (arm func(time.Duration), release func()) {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, 1, // CLOCK_MONOTONIC
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerWaker(fire)
	}
	f, done := os.NewFile(fd, "timerfd"), make(chan struct{})
	go func() {
		defer close(done)
		var n [8]byte // the expiry count
		for _, err := f.Read(n[:]); err == nil; _, err = f.Read(n[:]) {
			fire()
		}
	}()
	// Setting a positive expiry on an open timerfd cannot fail (a zero one
	// would disarm it). Closing the file ends the reader.
	return func(d time.Duration) {
		spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // interval, expiry
		syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}, func() { f.Close(); <-done }
}
