package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure in the result line's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// window is what a run's timed window measured. Every figure is taken over
// the whole window: the host's speed drifts in stretches of seconds, and a
// total over the window follows the share of fast and slow stretches
// smoothly, where a median over parts of it jumps between them.
type window struct {
	ok  int
	dur time.Duration
	cpu time.Duration // CPU of the process under test over the window
	lat []float64     // client-observed latency of ok operations, ms
}

// pollEvery is how often a traced in-process run samples the trace ring
// while its window runs.
const pollEvery = 200 * time.Millisecond

// timeWindow runs a closed loop's timed window of length d: it calls
// open(true) as the window opens and open(false) as it closes, and records
// the window's duration and the CPU that cpu reports over it. A non-nil
// poll is called every pollEvery meanwhile.
func timeWindow(o *outcome, d time.Duration, cpu func() (time.Duration, error), open func(bool), poll func()) error {
	c0, err := cpu()
	if err != nil {
		return err
	}
	start := time.Now()
	open(true)
	end := start.Add(d)
	for left := time.Until(end); left > 0; left = time.Until(end) {
		if poll == nil {
			time.Sleep(left)
			break
		}
		poll()
		time.Sleep(min(left, pollEvery))
	}
	open(false)
	o.win.dur = time.Since(start)
	c1, err := cpu()
	if err != nil {
		return err
	}
	o.win.cpu = c1 - c0
	return nil
}

// failures counts the operations of a timed window that did not return a
// correct result, by cause.
type failures struct {
	Shed, Errors, Lost, Mismatch int
}

func (f failures) total() int { return f.Shed + f.Errors + f.Lost + f.Mismatch }

func (f failures) String() string {
	return fmt.Sprintf("shed=%d error=%d lost=%d mismatch=%d", f.Shed, f.Errors, f.Lost, f.Mismatch)
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs, which it
// sorts in place. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns the user plus system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces:
	// state is field 3, utime 14 and stime 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// selfCPU returns this process's user plus system CPU time at microsecond
// resolution.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
