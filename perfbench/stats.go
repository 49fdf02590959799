package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// percentile resting on fewer is an anecdote, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs. It
// refuses when fewer than minBeyond samples lie beyond the chosen rank, so a
// run too short for its p99 fails loudly instead of reporting its maximum.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based nearest rank; the slack absorbs p's rounding
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// windowed splits xs, in time order, into the most equal windows whose
// p-th percentile each has minBeyond samples beyond it, and returns the
// median of those percentiles: a stall confined to a minority of windows
// moves their figures, not the result.
func windowed(xs []float64, p float64) (float64, error) {
	per := int(math.Ceil(minBeyond/(1-p) - 1e-9))
	k := max(len(xs)/per, 1)
	ps := make([]float64, k)
	for w := range ps {
		v, err := percentile(xs[w*len(xs)/k:(w+1)*len(xs)/k], p)
		if err != nil {
			return 0, err
		}
		ps[w] = v
	}
	return median(ps), nil
}

// median is percentile(xs, 0.5) for small sample sets (repeated set-ups),
// where the minBeyond rule does not apply: it averages the middle pair.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms and us convert durations to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the VmHWM high-water mark from the current resident
// set (Linux clear_refs code 5), so earlier phases do not count.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		logf("cannot reset peak RSS, rss_peak_mb includes input generation: %v", err)
	}
}

// cpuJiffies reads the machine's stolen and total CPU time from
// /proc/stat. Steal is time the hypervisor ran someone else on this
// machine's CPUs; a run with much of it measured a slower machine.
func cpuJiffies() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
