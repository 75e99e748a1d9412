package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// geomean is the geometric mean of positive values.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// beyond counts the sorted values strictly above x.
func beyond(sorted []float64, x float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > x })
}

func fmtFloats(v []float64, f string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// cpuNanos is the process's user+system CPU time (getrusage).
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// memSnap is a point-in-time copy of the allocation and GC counters.
type memSnap struct {
	mallocs, bytes uint64
	gcs            uint32
	gcCPU, busyCPU float64 // runtime/metrics CPU-class seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	s := memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuSamples[0].Value.Float64()
		s.busyCPU = cpuSamples[1].Value.Float64() - cpuSamples[2].Value.Float64()
	}
	return s
}

// memDelta reports per-operation allocation and GC figures between two
// snapshots spanning ops operations.
func memDelta(r *report, a, b memSnap, ops int64, unit string) {
	n := float64(ops)
	r.layer["allocs_per_"+unit] = metric{float64(b.mallocs-a.mallocs) / n, "count"}
	r.layer["alloc_B_per_"+unit] = metric{float64(b.bytes-a.bytes) / n, "B"}
	r.layer["gc_cycles_per_k"+unit] = metric{float64(b.gcs-a.gcs) / n * 1000, "count"}
	// The runtime's CPU classes are estimates comparable only with each
	// other: GC time over all non-idle time.
	if b.busyCPU > a.busyCPU {
		r.layer["gc_cpu_frac"] = metric{(b.gcCPU - a.gcCPU) / (b.busyCPU - a.busyCPU), "ratio"}
	}
}
