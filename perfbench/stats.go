package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by the "exclusive" rule Python's
// statistics.quantiles uses: position q*(n+1), interpolated and clamped
// to the sample range.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	i := int(pos)
	f := pos - float64(i)
	return s[i] + f*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0, so a layer with no work reports 0
// rather than a non-number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// coldHeap collects garbage and returns all free memory to the OS, so the
// phase timed next starts from the same state every time: whatever memory
// it allocates is faulted in fresh, as in a new process. Without it, how
// much of that memory the runtime happened to keep resident varies from
// run to run.
func coldHeap() { debug.FreeOSMemory() }

// resetPeakRSS starts a new peak-RSS window for this process: it empties
// the heap (coldHeap) and resets VmHWM to the current resident size, so a
// following peakRSSMB covers only what runs after it.
func resetPeakRSS() {
	coldHeap()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cannot reset the peak RSS, it covers the whole process:", err)
	}
}
