package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks — the same rule as Python's
// statistics.quantiles(method="inclusive"). xs is not modified. An empty
// input has no percentile; the caller must not report one.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is num/den, NaN when there is no base to divide by — a ratio
// without a base is absent, never silently zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// quartileSpread is (Q3 − Q1) / median with Python's default
// statistics.quantiles(values, n=4) ("exclusive") quartiles — the spread
// rule the benchmark's bounds are stated in.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Python's exclusive method, in its exact integer arithmetic: m = n+1,
	// j = i·m div 4 clamped to [1, n−1], δ = i·m − 4j.
	ld := len(s)
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / percentileSorted(s, 50)
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuPerOp is the CPU microseconds each client-visible operation cost over
// a window: (CPU at end − CPU at start) / ops.
func cpuPerOp(start, end time.Duration, ops uint64) float64 {
	return ratio(float64(end-start)/float64(time.Microsecond), float64(ops))
}

// latencies collects one kind of timed operation: each entry is the
// latency in microseconds and the offset of its start from the beginning
// of the measured window, so drift across the run can be read back.
type latencies struct {
	us []float64
	at []time.Duration
}

func (l *latencies) add(start time.Time, origin time.Time, d time.Duration) {
	l.us = append(l.us, float64(d)/float64(time.Microsecond))
	l.at = append(l.at, start.Sub(origin))
}

func (l *latencies) merge(o *latencies) {
	l.us = append(l.us, o.us...)
	l.at = append(l.at, o.at...)
}

func (l *latencies) n() int { return len(l.us) }

// window returns the latencies of operations started in [from, to).
func (l *latencies) window(from, to time.Duration) []float64 {
	var out []float64
	for i, a := range l.at {
		if a >= from && a < to {
			out = append(out, l.us[i])
		}
	}
	return out
}
