package main

// Turning windows into named metrics, each printed with its unit.

import (
	"fmt"
	"io"
	"math"
	"time"
)

type report struct {
	out    io.Writer
	counts [numOps]int
	e2e    []metric
	layer  []metric
}

func (r *report) print(m metric) {
	fmt.Fprintf(r.out, "%-34s %16.6f %s\n", m.name, m.value, m.unit)
}

func (r *report) addE2E(name string, v float64, unit string) {
	m := metric{name, v, unit}
	r.e2e = append(r.e2e, m)
	r.print(m)
}

func (r *report) addLayer(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m := metric{name, v, unit}
	r.layer = append(r.layer, m)
	r.print(m)
}

// ops prints each op's count and latency percentiles
// (authorize_p50_ms ... gateway_p99_ms), including the ops a workload
// does not issue, as n/a with n=0.
func (r *report) ops(res windowResult, window time.Duration) {
	var lat [numOps][]time.Duration
	failed := 0
	for _, s := range res.samples {
		lat[s.op] = append(lat[s.op], s.lat)
		if s.err != nil {
			failed++
		}
	}
	fmt.Fprintf(r.out, "# window %v offered=%d elapsed=%.3fs\n", window, len(res.samples), res.elapsed.Seconds())
	for op := 0; op < numOps; op++ {
		r.counts[op] = len(lat[op])
		if len(lat[op]) == 0 {
			fmt.Fprintf(r.out, "%-34s %16s ms (n=0)\n", opNames[op]+"_p50_ms", "n/a")
			fmt.Fprintf(r.out, "%-34s %16s ms (n=0)\n", opNames[op]+"_p99_ms", "n/a")
			continue
		}
		sorted := sortedDurations(lat[op])
		fmt.Fprintf(r.out, "%-34s %16.6f ms (n=%d)\n", opNames[op]+"_p50_ms", ms(percentile(sorted, 0.5)), len(sorted))
		fmt.Fprintf(r.out, "%-34s %16.6f ms (n=%d)\n", opNames[op]+"_p99_ms", ms(percentile(sorted, 0.99)), len(sorted))
	}
	fmt.Fprintf(r.out, "%-34s %16.6f ratio (failed=%d attempted=%d)\n", "error_rate", ratio(float64(failed), float64(len(res.samples))), failed, len(res.samples))
}

// endToEnd records the end-to-end metrics; setup is the CPU seconds
// set-up consumed, scaled to the reference host's speed, and rss the
// resident set after the window once garbage is collected. Latency is
// printed but not among them, and set-up is timed in CPU rather than
// wall seconds: on a shared VM the host's CPU steal moves wall-clock
// figures far more than any bound a regression gate could use (see
// README.md). Latency is carried unbounded in the per-layer set
// instead.
func (r *report) endToEnd(setup, rss float64, res windowResult, sp *speedSampler) {
	all := make([]time.Duration, len(res.samples))
	for i, s := range res.samples {
		all[i] = s.lat
	}
	sorted := sortedDurations(all)
	fmt.Fprintf(r.out, "# whole window: p50 %.6f ms, p99 %.6f ms, cpu %.6f us/op as measured; %d sub-windows of %v\n",
		ms(percentile(sorted, 0.5)), ms(percentile(sorted, 0.99)), us(res.cpu)/float64(len(res.samples)),
		len(res.sliceCPU), res.slice)
	fmt.Fprintf(r.out, "# sub-window p50 ms: %.3f\n# sub-window p99 ms: %.3f\n", res.sliceQuantiles(0.5), res.sliceQuantiles(0.99))
	var pass []float64
	for k := range res.sliceCPU {
		from := res.begin.Add(time.Duration(k) * res.slice)
		p, _, _ := sp.over(from, from.Add(res.slice))
		pass = append(pass, p)
	}
	fmt.Fprintf(r.out, "# sub-window cpu us/op as measured: %.1f\n# sub-window cpu us/op scaled: %.1f\n# sub-window kernel pass us: %.1f\n",
		res.cpuPerOp(nil), res.cpuPerOp(sp), pass)
	r.print(metric{"p50_ms", res.sliceMedian(0.5), "ms"})
	r.print(metric{"p99_ms", res.sliceMedian(0.99), "ms"})
	r.addE2E("setup_s", setup, "s")
	r.addE2E("cpu_us_per_op", res.cpuPerOpMean(sp), "us")
	r.addE2E("rss_mb", rss, "MiB")
	fmt.Fprintf(r.out, "# peak resident set so far %.3f MiB\n", peakRSSMB())
}

type perLayerInputs struct {
	untraced, traced windowResult
	w                *windowStats
	attr             *attribution
	probe            probeResult
	probeAfter       counters // after the probes, for means per event
	probeSpans       []span
	lagEnd           float64
	walEnd           float64 // the primary's WAL at the window's end, KiB
	sp               *speedSampler
}

// perLayer records the traced window's per-layer metrics. Counts per
// op come from the window alone; means per event of the bank's ledger
// and locks span the window and the probes, so workloads whose window
// never writes still measure them (on the probes' transfers).
func (r *report) perLayer(in perLayerInputs) {
	w, a := in.w, in.attr
	ops := w.ops
	delta := func(name string) float64 { n, _ := w.after.delta(w.before, name); return n }
	meanUs := func(name string) float64 { n, s := w.after.delta(w.before, name); return ratio(s, n) * 1e6 }
	both := func(name string) (float64, float64) { return in.probeAfter.delta(w.before, name) }
	bothMeanUs := func(name string) float64 { n, s := both(name); return ratio(s, n) * 1e6 }

	// end to end, from the untraced window
	r.addLayer("latency.p50_ms", in.untraced.sliceMedian(0.5), "ms")
	r.addLayer("latency.p99_ms", in.untraced.sliceMedian(0.99), "ms")

	// gen
	late := make([]time.Duration, 0, len(in.traced.samples))
	for _, s := range in.traced.samples {
		late = append(late, s.late)
	}
	r.addLayer("gen.late_p99_ms", ms(percentile(sortedDurations(late), 0.99)), "ms")
	r.addLayer("gen.backlog_max", float64(in.traced.backlogMax), "count")

	// transport
	var calls, disp []time.Duration
	var reqB, respB int
	for _, c := range a.calls {
		calls = append(calls, c.Dur)
		reqB += c.Req
		respB += c.Resp
	}
	for _, d := range a.dispatch {
		disp = append(disp, d.Dur)
	}
	var over time.Duration
	for _, o := range a.overhead {
		over += o
	}
	r.addLayer("transport.call_p50_us", us(percentile(sortedDurations(calls), 0.5)), "us")
	r.addLayer("transport.dispatch_p50_us", us(percentile(sortedDurations(disp), 0.5)), "us")
	r.addLayer("transport.overhead_us", ratio(us(over), float64(len(a.overhead))), "us")
	r.addLayer("transport.worker_wait_us", meanUs("proxykit_rpc_server_worker_wait_seconds"), "us")
	r.addLayer("transport.req_bytes", ratio(float64(reqB), float64(len(a.calls))), "bytes")
	r.addLayer("transport.resp_bytes", ratio(float64(respB), float64(len(a.calls))), "bytes")

	// svc
	r.addLayer("svc.seal_us", in.probe.us["svc.seal_us"], "us")
	r.addLayer("svc.open_us", in.probe.us["svc.open_us"], "us")
	r.addLayer("svc.opens_per_op", ratio(delta("proxykit_envelope_open_total"), ops), "count")
	r.addLayer("svc.resolve_per_op", ratio(float64(a.resolves), float64(a.ops)), "count")
	r.addLayer("svc.resolve_us", ratio(us(a.resolveNs), float64(a.resolves)), "us")

	// proxy, restrict, endserver
	r.addLayer("proxy.verify_miss_us", in.probe.us["proxy.verify_miss_us"], "us")
	r.addLayer("proxy.verify_hit_us", in.probe.us["proxy.verify_hit_us"], "us")
	r.addLayer("proxy.cache_hit_ratio", w.chainHitRatio, "ratio")
	r.addLayer("proxy.cache_evictions_per_op", ratio(delta("proxykit_chain_cache_evictions_total"), ops), "count")
	n, s := w.after.delta(w.before, "proxykit_authz_chain_length")
	r.addLayer("proxy.chain_len_mean", ratio(s, n), "count")
	r.addLayer("restrict.eval_us", in.probe.us["restrict.eval_us"], "us")
	r.addLayer("endserver.authorize_us", in.probe.us["endserver.authorize_us"], "us")

	// audit
	r.addLayer("audit.records_per_op", ratio(float64(w.audit), ops), "count")

	// accounting
	r.addLayer("accounting.transfer_us", in.probe.us["accounting.transfer_us"], "us")
	r.addLayer("accounting.balance_us", in.probe.us["accounting.balance_us"], "us")
	r.addLayer("accounting.stripe_wait_us", bothMeanUs("proxykit_acct_lock_stripe_wait_seconds"), "us")
	r.addLayer("accounting.stripe_acq_per_op", ratio(delta("proxykit_acct_lock_stripe_acquisitions_total"), ops), "count")

	// ledger
	appends := delta("proxykit_ledger_appends_total")
	allAppends, _ := both("proxykit_ledger_appends_total")
	fsyncs, _ := both("proxykit_ledger_fsync_seconds")
	bytesAll, _ := both("proxykit_ledger_append_bytes_total")
	bn, bs := both("proxykit_ledger_group_commit_batch_records")
	r.addLayer("ledger.appends_per_op", ratio(appends, ops), "count")
	r.addLayer("ledger.fsyncs_per_append", ratio(fsyncs, allAppends), "ratio")
	r.addLayer("ledger.batch_records_mean", ratio(bs, bn), "count")
	r.addLayer("ledger.commit_us", bothMeanUs("proxykit_ledger_group_commit_seconds"), "us")
	r.addLayer("ledger.fsync_us", bothMeanUs("proxykit_ledger_fsync_seconds"), "us")
	r.addLayer("ledger.bytes_per_append", ratio(bytesAll, allAppends), "bytes")
	r.addLayer("ledger.snapshots", w.snapshots, "count")
	r.addLayer("ledger.snapshot_ms", in.probe.us["ledger.snapshot_us"]/1000, "ms")
	r.addLayer("ledger.wal_kib_end", in.walEnd, "KiB")

	// repl
	r.addLayer("repl.records_per_batch", ratio(delta("proxykit_repl_shipped_records_total"), delta("proxykit_repl_shipped_batches_total")), "count")
	r.addLayer("repl.standby_applies_per_op", ratio(delta("proxykit_repl_standby_applies_total"), ops), "count")
	r.addLayer("repl.sync_degraded", delta("proxykit_repl_sync_degraded_total"), "count")
	r.addLayer("repl.lag_seq_end", in.lagEnd, "count")

	// gateway
	var up []time.Duration
	var upSum time.Duration
	for _, sp := range in.probeSpans {
		if sp.Kind == kindCall && sp.gw {
			up = append(up, sp.Dur)
			upSum += sp.Dur
		}
	}
	r.addLayer("gateway.http_us", in.probe.us["gateway.http_us"], "us")
	r.addLayer("gateway.proxy_cache_hit_ratio", w.gatewayHitRatio, "ratio")
	r.addLayer("gateway.upstream_call_us", ratio(us(upSum), float64(len(up))), "us")

	// runtime
	r.addLayer("runtime.alloc_bytes_per_op", ratio(float64(w.rtAfter.allocBytes-w.rtBefore.allocBytes), ops), "bytes")
	r.addLayer("runtime.gc_per_kop", ratio(float64(w.rtAfter.gcCycles-w.rtBefore.gcCycles)*1000, ops), "count")
	r.addLayer("runtime.gc_pause_p99_us", histQuantile(w.rtBefore.gcPauses, w.rtAfter.gcPauses, 0.99)*1e6, "us")
	r.addLayer("runtime.sched_latency_p99_us", histQuantile(w.rtBefore.schedLat, w.rtAfter.schedLat, 0.99)*1e6, "us")
	r.addLayer("runtime.goroutines_max", float64(w.goroutinesMax), "count")
	r.addLayer("runtime.rss_peak_mb", peakRSSMB(), "MiB")

	// trace: where an op's time went, per op, and what tracing cost
	for _, k := range []string{kindOp, kindCall, kindDispatch, kindResolve} {
		r.addLayer("trace.self_"+traceKey[k]+"_us", ratio(us(a.self[k]), float64(a.ops)), "us")
	}
	r.addLayer("trace.spans_per_op", ratio(float64(a.spans), ops), "count")
	base := in.untraced.sliceMedian(0.5)
	r.addLayer("trace.overhead_pct", ratio(in.traced.sliceMedian(0.5)-base, base)*100, "%")
	cpuBase := in.untraced.cpuPerOpMean(in.sp)
	r.addLayer("trace.cpu_overhead_pct", ratio(in.traced.cpuPerOpMean(in.sp)-cpuBase, cpuBase)*100, "%")
}

var traceKey = map[string]string{kindOp: "op", kindCall: "call", kindDispatch: "dispatch", kindResolve: "resolve"}
