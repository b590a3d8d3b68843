package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cliRun is one finished program invocation.
type cliRun struct {
	stdout []byte
	stderr []byte
	wall   time.Duration
	cpu    time.Duration // user + sys of the child
	rssMB  float64       // peak resident set of the child
}

// cliTimeout bounds one invocation, so a hung program fails its
// operation instead of the whole run.
const cliTimeout = 120 * time.Second

// runCLI runs a program to completion in dir and measures it. A
// non-zero exit is an error carrying the program's stderr tail.
func runCLI(dir, bin string, args ...string) (cliRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cliTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	res := cliRun{stdout: out.Bytes(), stderr: errb.Bytes(), wall: time.Since(t0)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return res, fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, lastLine(errb.Bytes()))
	}
	return res, nil
}

func lastLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// procCPU returns the CPU time a live process has used, user and
// system, to the nanosecond: the sum of the first field of
// /proc/<pid>/task/*/schedstat, each thread's time on a CPU. The
// user+sys fields of /proc/<pid>/stat count only 10 ms ticks, too
// coarse for a batch of well under a second. Time of a thread that has
// exited is lost; the Go runtime keeps its threads.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no threads of process %d in /proc", pid)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			if os.IsNotExist(err) {
				continue // the thread exited after the glob
			}
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s: %w", t, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procPeakRSS returns a live process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
