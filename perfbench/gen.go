package main

// The open-loop generator: nproc senders drain a precomputed Poisson
// schedule. Latency runs from an arrival's due time, except when its
// sender was idle at that time: then the clock starts at the actual
// send, because time.Sleep's oversleep on a small VM is of the same
// order as the operations measured. The lateness of every send is
// reported separately.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed arrival.
type sample struct {
	op   int
	at   time.Duration // due offset in the window
	lat  time.Duration // from due (or from the actual send, see above)
	late time.Duration // actual send minus due
	err  error
}

// windowResult is what one measured window produced.
type windowResult struct {
	samples    []sample
	backlogMax int
	elapsed    time.Duration
	cpu        time.Duration // process user+sys CPU over the window
	begin      time.Time     // when the window started
	// slice is the length of each sub-window and sliceCPU the process
	// CPU each took. Each sub-window's CPU is scaled by the host's
	// speed over it, and latency is reported as medians over
	// sub-windows, so a burst of host contention moves a few
	// sub-windows, not the run's figure.
	slice    time.Duration
	sliceCPU []time.Duration
}

// sliceLen is the target sub-window length.
const sliceLen = time.Second

// drainLimit bounds how far past the schedule's end a window may run
// before its unsent arrivals are abandoned (and counted as failures).
const drainLimit = 20 * time.Second

// errAbandoned marks arrivals never sent because the window overran.
var errAbandoned = fmt.Errorf("arrival abandoned: generator overran the window by %v", drainLimit)

// runWindow offers sched open loop. rid, when non-nil, names each
// arrival's request (tracing), and onOp is called after each op.
func runWindow(d *deployment, sched []arrival, rid func(i int) string, onOp func(i int, rid string, start time.Time, dur time.Duration, err error)) windowResult {
	senders := runtime.NumCPU()
	var (
		next    atomic.Int64
		backlog atomic.Int64
		wg      sync.WaitGroup
		parts   = make([][]sample, senders)
	)
	span := sched[len(sched)-1].at
	slices := max(1, int((span+sliceLen/2)/sliceLen))
	slice := span/time.Duration(slices) + 1
	marks := make([]time.Duration, slices+1)
	stopMarks := make(chan struct{})
	marked := make(chan struct{})
	cpu0 := processCPU()
	begin := time.Now()
	marks[0] = cpu0
	go func() {
		defer close(marked)
		for k := 1; k <= slices; k++ {
			t := time.NewTimer(time.Until(begin.Add(time.Duration(k) * slice)))
			select {
			case <-t.C:
				marks[k] = processCPU()
			case <-stopMarks:
				t.Stop()
				for ; k <= slices; k++ {
					marks[k] = processCPU()
				}
				return
			}
		}
	}()
	giveUp := begin.Add(span + drainLimit)
	wg.Add(senders)
	for w := 0; w < senders; w++ {
		go func(w int) {
			defer wg.Done()
			out := make([]sample, 0, len(sched)/senders+64)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					break
				}
				a := &sched[i]
				due := begin.Add(a.at)
				now := time.Now()
				start := due
				if wait := due.Sub(now); wait > 0 {
					time.Sleep(wait)
					start = time.Now()
				} else {
					// Arrivals already due and not yet taken, this one
					// included.
					n := sort.Search(len(sched), func(j int) bool { return sched[j].at > now.Sub(begin) })
					for b := int64(n - i); ; {
						cur := backlog.Load()
						if b <= cur || backlog.CompareAndSwap(cur, b) {
							break
						}
					}
					if now.After(giveUp) {
						out = append(out, sample{op: a.op, at: a.at, lat: time.Duration(math.MaxInt64), err: errAbandoned})
						continue
					}
				}
				id := ""
				if rid != nil {
					id = rid(i)
				}
				sent := time.Now()
				err := d.do(a, id)
				done := time.Now()
				s := sample{op: a.op, at: a.at, lat: done.Sub(start), late: sent.Sub(due), err: err}
				if err != nil {
					// A failed op misses every latency limit.
					s.lat = time.Duration(math.MaxInt64)
				}
				if onOp != nil {
					onOp(i, id, sent, done.Sub(sent), err)
				}
				out = append(out, s)
			}
			parts[w] = out
		}(w)
	}
	wg.Wait()
	close(stopMarks)
	<-marked
	res := windowResult{elapsed: time.Since(begin), cpu: processCPU() - cpu0, backlogMax: int(backlog.Load()), begin: begin, slice: slice}
	for k := 1; k <= slices; k++ {
		res.sliceCPU = append(res.sliceCPU, marks[k]-marks[k-1])
	}
	for _, p := range parts {
		res.samples = append(res.samples, p...)
	}
	return res
}

// percentile returns the q-quantile (nearest rank) of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func sortedDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sliceMedian splits samples into the window's sub-windows by due
// time and returns the median over sub-windows of each one's
// q-quantile latency, in milliseconds.
func (r windowResult) sliceMedian(q float64) float64 {
	return median(r.sliceQuantiles(q))
}

// sliceQuantiles is the q-quantile of latency in each sub-window, in
// milliseconds.
func (r windowResult) sliceQuantiles(q float64) []float64 {
	per := make([][]time.Duration, len(r.sliceCPU))
	for _, s := range r.samples {
		k := min(int(s.at/r.slice), len(per)-1)
		per[k] = append(per[k], s.lat)
	}
	var vals []float64
	for _, p := range per {
		if len(p) > 0 {
			vals = append(vals, ms(percentile(sortedDurations(p), q)))
		}
	}
	return vals
}

// cpuPerOpMean is the window's process CPU per arrival, in
// microseconds. With sp, each sub-window's CPU is first scaled to the
// reference host's speed over that sub-window.
func (r windowResult) cpuPerOpMean(sp *speedSampler) float64 {
	var cpu time.Duration
	for k := range r.sliceCPU {
		cpu += r.scaledSlice(k, sp)
	}
	return ratio(us(cpu), float64(len(r.samples)))
}

// cpuPerOp is each sub-window's process CPU per arrival due in it, in
// microseconds, scaled to the reference host's speed with sp.
func (r windowResult) cpuPerOp(sp *speedSampler) []float64 {
	n := make([]int, len(r.sliceCPU))
	for _, s := range r.samples {
		n[min(int(s.at/r.slice), len(n)-1)]++
	}
	var vals []float64
	for k := range r.sliceCPU {
		if n[k] > 0 {
			vals = append(vals, us(r.scaledSlice(k, sp))/float64(n[k]))
		}
	}
	return vals
}

// scaledSlice is sub-window k's process CPU, scaled to the reference
// host's speed when sp is not nil.
func (r windowResult) scaledSlice(k int, sp *speedSampler) time.Duration {
	if sp == nil {
		return r.sliceCPU[k]
	}
	from := r.begin.Add(time.Duration(k) * r.slice)
	return sp.scaled(r.sliceCPU[k], from, from.Add(r.slice))
}
