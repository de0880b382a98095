package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// geomean is the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample is a reading of the Go runtime's allocation and GC
// counters.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, totalCPU                    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes: v(0), allocObjects: v(1), gcCycles: v(2),
		gcCPU: v(3), totalCPU: v(4),
	}
}

// runtimeWindow measures the runtime counters over one measured phase. The
// CPU classes are estimates the runtime refreshes at each GC, so the window
// starts and ends with a forced collection to make them current.
type runtimeWindow struct{ start runtimeSample }

func startRuntimeWindow() runtimeWindow {
	runtime.GC()
	return runtimeWindow{start: readRuntime()}
}

// end closes the window, returning the counter deltas.
func (w runtimeWindow) end() runtimeSample {
	before := readRuntime()
	runtime.GC()
	after := readRuntime()
	// The closing collection is the benchmark's own: count its CPU (so the
	// window's GC estimates are current) but not its cycle.
	return runtimeSample{
		allocBytes:   before.allocBytes - w.start.allocBytes,
		allocObjects: before.allocObjects - w.start.allocObjects,
		gcCycles:     before.gcCycles - w.start.gcCycles,
		gcCPU:        after.gcCPU - w.start.gcCPU,
		totalCPU:     after.totalCPU - w.start.totalCPU,
	}
}

// perOp sets the runtime layer's metrics and alloc_mb_per_op from a
// window's deltas over ops operations.
func (r runtimeSample) perOp(ops int, m metricSet) {
	n := float64(ops)
	m.set("alloc_mb_per_op", ratio(r.allocBytes/1e6, n))
	m.set("runtime.gc_cpu_share", ratio(r.gcCPU, r.totalCPU))
	m.set("runtime.gc_cycles_per_op", ratio(r.gcCycles, n))
	m.set("runtime.mallocs_per_op", ratio(r.allocObjects, n))
}

// processCPU is the CPU time the process has received, user plus system.
// The kernel does not charge a task for time its virtual CPU was stolen by
// the hypervisor, so unlike wall time it does not grow when other tenants
// of the host take the CPU.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
