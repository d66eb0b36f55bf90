package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run prints last. Its notes are printed
// before it as comment lines: sample counts and the layer accounting.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

// set records a metric. A ratio over an empty base reads 0 rather than
// NaN, which JSON cannot carry.
func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// quantile returns the q-quantile of v, interpolating linearly between
// the closest ranks, or 0 for no samples. It sorts v in place.
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return float64(v[len(v)-1])
	}
	return float64(v[i]) + (pos-float64(i))*float64(v[i+1]-v[i])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perK is n per thousand of base.
func perK(n, base int64) float64 { return float64(n) * 1000 / float64(base) }

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu        time.Duration // user plus system CPU of the whole process
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64 // seconds of CPU the runtime spent on garbage collection
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	u := usage{cpu: cpuTime(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = gc[0].Value.Float64()
	}
	return u
}

func (u usage) since(o usage) usage {
	return usage{
		cpu:        u.cpu - o.cpu,
		mallocs:    u.mallocs - o.mallocs,
		allocBytes: u.allocBytes - o.allocBytes,
		gcCycles:   u.gcCycles - o.gcCycles,
		gcCPU:      u.gcCPU - o.gcCPU,
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB; Linux
// reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// idleCPU is the CPU the process burns per second of wall time while
// the set-up stack is offered no load: failure-detector probes, commit
// loops, pollers.
func idleCPU(d time.Duration) float64 {
	before := cpuTime()
	time.Sleep(d)
	return float64(cpuTime()-before) / float64(time.Millisecond) / d.Seconds()
}
