package main

import (
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The virtual CPUs this benchmark was tuned on change speed with their
// recent load: after idling they run slower and take a second or more
// of sustained load to recover, so a service running at a low offered
// rate is timed at whatever speed the last second of load left behind.
// The idle spinner holds the CPUs at full speed, as pinning a frequency
// governor would: a child process of idle scheduling class
// (SCHED_IDLE) that spins on every CPU and only ever runs when no other
// thread wants the CPU. On jobs-hot it cut the p50 spread across five
// seeds from about 1.0 to about 0.27.

// sink keeps the spinner's arithmetic from being optimized away.
var sink atomic.Uint64

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// setIdlePolicy moves the calling thread to SCHED_IDLE.
func setIdlePolicy() error {
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle,
		uintptr(unsafe.Pointer(&param))); errno != 0 {
		return errno
	}
	return nil
}

// spinner is a running idle spinner process.
type spinner struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	once  sync.Once
}

// startSpinner starts the benchmark binary as an idle spinner.
func startSpinner() (*spinner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-spin")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &spinner{cmd: cmd, stdin: stdin}, nil
}

// stop ends the spinner and waits for it to exit.
func (s *spinner) stop() {
	if s == nil {
		return
	}
	s.once.Do(func() {
		s.stdin.Close()
		s.cmd.Wait()
	})
}

// spin is the spinner process: it keeps every CPU busy until its
// standard input closes, which happens when the parent stops it or
// exits for any reason.
func spin() {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each spinning goroutine owns its thread and demotes it, so
			// the spinning never competes with a runnable thread of the
			// benchmark. Where SCHED_IDLE is refused, the lowest nice
			// value comes close.
			runtime.LockOSThread()
			if setIdlePolicy() != nil {
				syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), 19)
			}
			x := 1.0
			for {
				select {
				case <-stop:
					sink.Store(math.Float64bits(x))
					return
				default:
				}
				for k := 0; k < 100_000; k++ {
					x = x*1.000001 + 1e-9
				}
			}
		}()
	}
	io.Copy(io.Discard, os.Stdin)
	close(stop)
	wg.Wait()
}
