package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) may itself hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command name")
	}
	// After ')' come field 3 (state) onwards; utime and stime are fields
	// 14 and 15, so indexes 11 and 12 here.
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command name", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat: cpu time %q: %w", s, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// parseStatusKB returns a kB field of /proc/<pid>/status, such as VmHWM
// (peak resident set size) or VmRSS, in bytes.
func parseStatusKB(status []byte, field string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", field, sc.Text())
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: %s %q: %w", field, f[0], err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("status: no %s line", field)
}

// procCPU reads the CPU time a process has used; pid "self" is this one.
func procCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// selfCPU reads the CPU time this process has used, at the scheduler's
// resolution rather than /proc's ticks, for timing a single call.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// cpuSeconds runs f after a collection, so f is not charged for garbage
// left before it, and returns the process CPU seconds f took. A timing
// taken this way leaves out the time the host ran other tenants on this
// VM's vCPUs, which wall time does not.
func cpuSeconds(f func() error) (float64, error) {
	runtime.GC()
	c0, err := selfCPU()
	if err != nil {
		return 0, err
	}
	ferr := f()
	c1, err := selfCPU()
	if ferr != nil {
		return 0, ferr
	}
	if err != nil {
		return 0, err
	}
	return (c1 - c0).Seconds(), nil
}

// resetPeakRSS restarts a process's peak RSS (VmHWM) from its current RSS,
// so a later procPeakRSS covers only what ran in between.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// startWindow frees the garbage input generation and set-up left behind
// and restarts the process's peak RSS, so peak_rss_mb covers the measured
// ops alone.
func startWindow() error {
	debug.FreeOSMemory()
	return resetPeakRSS("self")
}

// procPeakRSS reads a process's peak resident set size in bytes.
func procPeakRSS(pid string) (int64, error) { return procStatusKB(pid, "VmHWM") }

func procStatusKB(pid, field string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseStatusKB(b, field)
}
