package main

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// POSIX CPU-time clock ids (linux/time.h).
const (
	clockProcessCPU = 2
	clockThreadCPU  = 3
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time this process has consumed on all threads.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time of the calling OS thread; meaningful only on
// a goroutine pinned with runtime.LockOSThread.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// ownProcessGroup starts the child in a process group of its own, so one
// kill reaches anything it forks, and has the kernel kill it should the
// benchmark die without cleaning up.
func ownProcessGroup(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
}

// killGroup sends SIGKILL to the child's process group.
func killGroup(cmd *exec.Cmd) {
	if cmd.Process != nil {
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	}
}

// childCPU is the user+system CPU time of a child that has been waited for.
func childCPU(ps *os.ProcessState) time.Duration {
	if ps == nil {
		return 0
	}
	return ps.UserTime() + ps.SystemTime()
}

// bindToCPU binds the calling OS thread to one CPU.
func bindToCPU(cpu int) error {
	var mask [1024 / 64]uint64
	if cpu >= len(mask)*64 {
		return syscall.EINVAL
	}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return errno
	}
	return nil
}

// hostSteal is the CPU time the hypervisor has withheld from this machine
// since boot, summed over its CPUs: the eighth number of /proc/stat's first
// line, in ticks of 10 ms (USER_HZ is 100 on every Linux ABI). It is a
// signal about the host that owes nothing to the program under test.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
