package main

// Snapshots of the program's own counters (obs.Default) and of the Go
// runtime (runtime/metrics), taken around a window; metrics are their
// deltas.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"proxykit/internal/obs"
)

// counters is one obs.Default snapshot: every family summed over its
// label children, and each child of a labelled family under
// name{label=value}. Histograms keep count and sum.
type counters map[string]struct{ count, sum float64 }

func readCounters() (counters, error) {
	var buf bytes.Buffer
	if err := obs.Default.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	out := counters{}
	for name, raw := range doc {
		var c struct{ count, sum float64 }
		addValue(raw, &c.count, &c.sum)
		out[name] = c
		var children map[string]json.RawMessage
		if json.Unmarshal(raw, &children) != nil {
			continue
		}
		for key, child := range children {
			if strings.Contains(key, "=") {
				var c struct{ count, sum float64 }
				addValue(child, &c.count, &c.sum)
				out[name+"{"+key+"}"] = c
			}
		}
	}
	return out, nil
}

// addValue adds a rendered value: a number (counter or gauge), a
// histogram object, or a map of label children holding either.
func addValue(raw json.RawMessage, count, sum *float64) {
	var n float64
	if json.Unmarshal(raw, &n) == nil {
		*count += n
		return
	}
	var h struct {
		Count *float64 `json:"count"`
		Sum   float64  `json:"sum"`
	}
	if json.Unmarshal(raw, &h) == nil && h.Count != nil {
		*count += *h.Count
		*sum += h.Sum
		return
	}
	var children map[string]json.RawMessage
	if json.Unmarshal(raw, &children) == nil {
		for _, c := range children {
			addValue(c, count, sum)
		}
	}
}

// delta is after minus before for one family or labelled child: the
// event count and, for histograms, the summed observations.
func (after counters) delta(before counters, name string) (count, sum float64) {
	return after[name].count - before[name].count, after[name].sum - before[name].sum
}

// ratio is num/den, or 0 when nothing happened.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeStats is one runtime/metrics snapshot.
type runtimeStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcPauses   *metrics.Float64Histogram
	schedLat   *metrics.Float64Histogram
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcPauses:   s[2].Value.Float64Histogram(),
		schedLat:   s[3].Value.Float64Histogram(),
	}
}

// histQuantile is the q-quantile of after minus before, interpolated
// linearly within the bucket it falls in (the lower bound of an
// unbounded bucket); 0 when the delta is empty.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(after.Counts))
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 || seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		if math.IsInf(hi, 1) {
			return lo
		}
		lo = math.Max(lo, 0)
		return lo + (hi-lo)*(rank-seen)/float64(c)
	}
	return 0
}

// goroutineSampler records the peak goroutine count while it runs.
type goroutineSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	max  uint64
}

func startGoroutineSampler() *goroutineSampler {
	g := &goroutineSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		s := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			g.mu.Lock()
			g.max = max(g.max, s[0].Value.Uint64())
			g.mu.Unlock()
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

// finish stops the sampler and returns the peak.
func (g *goroutineSampler) finish() uint64 {
	close(g.stop)
	<-g.done
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// residentAfterGCMB is the process's resident set, in MiB, once a full
// collection has returned every free heap page to the OS. Unlike the
// peak, it does not hang on where the last collection fell.
func residentAfterGCMB() float64 {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}
