// Command perfbench is proxykit's benchmark: it stands up the
// deployment (bank with a durable, optionally replicated ledger,
// end-server, group and authz servers, HTTP gateway) in this process
// over loopback TCP with the daemons' defaults, offers one seeded
// open-loop workload, checks the run for correctness, and prints every
// metric with its unit. The last line of standard output is the
// result as one JSON object.
//
//	perfbench --workload authz|payments|mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 the run measures a second, traced window on the same
// deployment and the result holds the per-layer metrics. run.py builds
// this package and runs it; see README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
}

// fullWindow is the measured window BENCHMARK.json runs. In it every op
// the workload issues needs minP99Samples samples for its p99 to count;
// a shorter window (a smoke run) needs proportionally fewer.
const (
	fullWindow    = 10 * time.Second
	minP99Samples = 1000
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is the run's outcome, printed as the last line.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: authz, payments or mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced window and reports per-layer metrics")
	flag.StringVar(&cfg.workDir, "work-dir", filepath.Join(".bench_build", "perfbench"), "directory for ledgers, state and span files")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
	if !res.correct {
		os.Exit(1)
	}
}

func printResult(w io.Writer, res result) {
	ms := map[string]any{}
	for _, m := range res.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": ms,
	})
	fmt.Fprintln(w, string(line))
}

// windowStats are the program-counter and runtime deltas over a window.
type windowStats struct {
	ops               float64
	chainHitRatio     float64
	gatewayHitRatio   float64
	batchRecordsMean  float64
	snapshots         float64 // successful snapshots
	before, after     counters
	rtBefore, rtAfter runtimeStats
	goroutinesMax     uint64
	audit             uint64
}

func (d *deployment) auditRecords() uint64 {
	return d.endJ.Stats().Records + d.bankJ.Stats().Records + d.gwJ.Stats().Records
}

// measure runs one window and collects its deltas.
func (d *deployment) measure(sched []arrival, rid func(int) string, onOp func(int, string, time.Time, time.Duration, error)) (windowResult, *windowStats, error) {
	w := &windowStats{}
	var err error
	if w.before, err = readCounters(); err != nil {
		return windowResult{}, nil, err
	}
	w.rtBefore = readRuntime()
	audit0 := d.auditRecords()
	gs := startGoroutineSampler()
	res := runWindow(d, sched, rid, onOp)
	w.goroutinesMax = gs.finish()
	w.rtAfter = readRuntime()
	w.audit = d.auditRecords() - audit0
	if w.after, err = readCounters(); err != nil {
		return windowResult{}, nil, err
	}
	w.ops = float64(len(res.samples))
	hits, _ := w.after.delta(w.before, "proxykit_chain_cache_hits_total")
	misses, _ := w.after.delta(w.before, "proxykit_chain_cache_misses_total")
	w.chainHitRatio = ratio(hits, hits+misses)
	ghits, _ := w.after.delta(w.before, "proxykit_gateway_proxy_cache_hits_total")
	gmisses, _ := w.after.delta(w.before, "proxykit_gateway_proxy_cache_misses_total")
	w.gatewayHitRatio = ratio(ghits, ghits+gmisses)
	n, sum := w.after.delta(w.before, "proxykit_ledger_group_commit_batch_records")
	w.batchRecordsMean = ratio(sum, n)
	w.snapshots, _ = w.after.delta(w.before, `proxykit_ledger_snapshot_total{outcome=ok}`)
	return res, w, nil
}

// warm fills the caches a long-running deployment would have warm:
// one authorize (and, where the mix has them, one gateway request) per
// cascade holder, then a short open-loop burst of the workload itself.
func (d *deployment) warm(seed int64) error {
	holders := d.wl.cascadeHolders()
	if d.wl.mix[opAuthorize] > 0 || d.wl.mix[opGateway] > 0 {
		err := parallel(holders, func(i int) error {
			a := &arrival{op: opAuthorize, a: int32(i), b: int32((i + 1) % d.wl.principals)}
			if err := d.do(a, ""); err != nil {
				return err
			}
			if d.wl.mix[opGateway] > 0 {
				a.op = opGateway
				return d.do(a, "")
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	res := runWindow(d, d.wl.schedule(seed, time.Second), nil, nil)
	for _, s := range res.samples {
		if s.err != nil {
			return fmt.Errorf("warm-up: %s: %w", opNames[s.op], s.err)
		}
	}
	return nil
}

func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func run(cfg config, out io.Writer) (result, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	if cfg.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	setups := wl.setups
	var lay *layers
	if cfg.trace {
		lay, setups = newLayers(), 1
	}

	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", wl.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "# env nproc=%d GOMAXPROCS=%d go=%s os=%s/%s ledger_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, fsName(cfg.workDir))
	fmt.Fprintf(out, "# workload principals=%d cascade_holders=%d account_holders=%d standby=%v rate=%g/s mix=%s open_loop=poisson senders=%d\n",
		wl.principals, wl.cascadeHolders(), wl.accountHolders(), wl.standby, wl.rate, wl.mixString(), runtime.NumCPU())
	fmt.Fprintf(out, "# deployment chain_cache=1024 audit=memory fsync=always group_commit=on snapshot_interval=%v hold_sweep=%v semi_sync_timeout=%v setups=%d\n",
		snapshotInterval, holdSweepInterval, map[bool]time.Duration{true: syncTimeout}[wl.standby], setups)

	// The report is held back until the gate and the parity checks
	// pass: a failing run prints its failures and no numbers.
	var buf bytes.Buffer
	rep := &report{out: &buf}
	sp := startSpeedSampler()
	defer sp.stop()
	var (
		d                   *deployment
		cpus, scaled, walls []float64
	)
	for i := 0; i < setups; i++ {
		// Flush the dirty pages that what ran before left behind: the
		// kernel charges writing them back, and making journal room for
		// them, to whichever process is writing when it happens.
		syscall.Sync()
		start, cpu0 := time.Now(), processCPU()
		d, err = deploy(cfg.workDir, wl, lay)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		cpu, end := processCPU()-cpu0, time.Now()
		cpus = append(cpus, cpu.Seconds())
		scaled = append(scaled, sp.scaled(cpu, start, end).Seconds())
		walls = append(walls, end.Sub(start).Seconds())
		if i < setups-1 {
			d.close()
		}
	}
	defer d.close()
	runStart, err := readCounters()
	if err != nil {
		return result{}, err
	}
	if err := d.warm(cfg.seed ^ 0x5eed); err != nil {
		return result{}, err
	}

	sched := wl.schedule(cfg.seed, window)
	if len(sched) == 0 {
		return result{}, fmt.Errorf("empty schedule")
	}
	syscall.Sync()
	res, ws, err := d.measure(sched, nil, nil)
	if err != nil {
		return result{}, err
	}
	rss := residentAfterGCMB()
	rep.ops(res, window)
	all := res.samples
	fmt.Fprintf(&buf, "# set-up wall time %.3f s, CPU time %.3f s as measured (medians of %d)\n", median(walls), median(cpus), len(walls))
	fmt.Fprintf(&buf, "# set-ups: wall s %.3f, CPU s %.3f, scaled CPU s %.3f\n", walls, cpus, scaled)
	pass, n, _ := sp.over(res.begin, res.begin.Add(res.elapsed))
	fmt.Fprintf(&buf, "# host speed: kernel pass %.3f us over the window (%d samples), reference %g us\n", pass, n, calibRefUs)
	rep.endToEnd(median(scaled), rss, res, sp)

	var fails []string
	if cfg.trace {
		lay.on.Store(true)
		traced, tws, err := d.measure(sched, ridFor, func(i int, rid string, start time.Time, dur time.Duration, err error) {
			s := span{ID: lay.nextID.Add(1), RID: rid, Kind: kindOp, Name: opNames[sched[i].op], Start: start, Dur: dur}
			if err != nil {
				s.Err = err.Error()
			}
			lay.record(s)
		})
		if err != nil {
			return result{}, err
		}
		lagEnd, walEnd := 0.0, d.walKiB()
		if d.standby != nil {
			lagEnd = float64(d.bank.Ledger().LastSeq()) - float64(d.standby.Ledger().LastSeq())
		}
		spans, aliases := lay.take()
		attr := link(spans, aliases)
		path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, cfg.seed))
		if err := writeSpans(path, spans, aliases); err != nil {
			return result{}, err
		}
		fmt.Fprintf(&buf, "# spans %d written to %s\n", len(spans), path)
		lay.mu.Lock()
		captured := maps.Clone(lay.captured)
		lay.mu.Unlock()
		pr := d.probe(cfg.seed, captured)
		lay.on.Store(false)
		probeAfter, err := readCounters()
		if err != nil {
			return result{}, err
		}
		probeSpans, _ := lay.take()
		if pr.err != nil {
			fails = append(fails, pr.err.Error())
		}
		rep.perLayer(perLayerInputs{
			untraced: res, traced: traced, w: tws, attr: attr, probe: pr,
			probeAfter: probeAfter, probeSpans: probeSpans, lagEnd: lagEnd, walEnd: walEnd, sp: sp,
		})
		fails = append(fails, parity(wl, tws, window)...)
		all = append(all, traced.samples...)
	}

	fails = append(fails, parity(wl, ws, window)...)
	attempted, failed := len(all), 0
	for _, s := range all {
		if s.err != nil {
			if failed == 0 {
				fails = append(fails, fmt.Sprintf("%s failed: %v", opNames[s.op], s.err))
			}
			failed++
		}
	}
	floor := int(minP99Samples * min(1, window.Seconds()/fullWindow.Seconds()))
	for op, n := range rep.counts {
		if wl.mix[op] > 0 && n < floor {
			fails = append(fails, fmt.Sprintf("%s: %d samples, p99 needs %d", opNames[op], n, floor))
		}
	}
	fails = append(fails, d.gate(runStart)...)

	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(out, "FAIL", f)
		}
		return result{correct: false, attempted: attempted, failed: failed, metrics: []metric{}}, nil
	}
	if _, err := buf.WriteTo(out); err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, "# correctness gate and parity checks passed")
	metrics := rep.e2e
	if cfg.trace {
		metrics = rep.layer
	}
	return result{correct: true, attempted: attempted, failed: failed, metrics: metrics}, nil
}
