package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// Ops are timed in CPU time. On a shared host, wall time also counts the
// periods the machine ran other tenants' work, which swing one op's wall
// time by tens of percent within seconds. The clock is Linux's
// CLOCK_PROCESS_CPUTIME_ID, which counts nanoseconds; getrusage's times
// advance in scheduler ticks.
const clockProcessCPU = 2

// cpuTime returns the CPU time every thread of the process has used so
// far, garbage collection included.
func cpuTime() time.Duration { return clockTime(clockProcessCPU) }

// timed runs f after an untimed garbage collection and returns the CPU time
// the whole process spent in f. Collecting first charges f for collecting
// its own garbage, assists and the background mark workers on other threads
// alike, and for none of the garbage that earlier work left behind.
func timed(f func()) int64 {
	runtime.GC()
	c0 := cpuTime()
	f()
	return (cpuTime() - c0).Nanoseconds()
}

func clockTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", clock, e)) // only an unknown clock fails
	}
	return time.Duration(ts.Nano())
}

// dist summarizes a sample: its size, quartiles and median.
type dist struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

// summarize returns the sample's quartiles, computed like Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), and its
// median.
func summarize(values []float64) dist {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	d := dist{N: len(s)}
	if len(s) == 0 {
		return d
	}
	d.P50 = median(s)
	if len(s) < 2 {
		d.P25, d.P75 = s[0], s[0]
		return d
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	d.P25, d.P75 = q(1), q(3)
	return d
}

// median of a sorted sample.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is median for an unsorted sample.
func medianOf(values []float64) float64 { return summarize(values).P50 }

// tailOps is how many ops must lie beyond the reported tail percentile.
const tailOps = 10

// tail returns the highest percentile of values that has at least tailOps
// values beyond it: the (tailOps+1)-th largest value, together with its
// percentile rank. ok is false when the sample is too small to have one.
func tail(values []float64) (v, pct float64, ok bool) {
	n := len(values)
	if n <= tailOps {
		return 0, 0, false
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[n-tailOps-1], 100 * float64(n-tailOps) / float64(n), true
}

// timingMetrics turns ns/inst samples into the two ns/inst end-to-end
// metrics: ns_per_inst_p50 is the median of p50Samples, ns_per_inst_tail the
// tail of the per-op samples ops.
func timingMetrics(p50Samples []float64, what string, ops []float64) ([]metric, error) {
	d := summarize(p50Samples)
	t, pct, ok := tail(ops)
	if !ok {
		return nil, fmt.Errorf("%d ops is too few for a tail percentile (need > %d)", len(ops), tailOps)
	}
	return []metric{
		{Name: "ns_per_inst_p50", Unit: "ns", Value: d.P50, Dist: &d,
			Note: "host CPU ns per retired simulated instruction, median over " + what},
		{Name: "ns_per_inst_tail", Unit: "ns", Value: t,
			Note: fmt.Sprintf("p%.1f of %d ops (%d ops beyond it)", pct, len(ops), tailOps)},
	}, nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
