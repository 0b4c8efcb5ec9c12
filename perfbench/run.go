package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"sdrad/internal/core"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
)

// target is one workload's system under test: built with the default
// configuration, loaded, and with one connection per client open.
type target interface {
	// call runs client ci's n-th blocking call, checks every reply and
	// records the call in cr. An error is a failed output check.
	call(ci, n int, cr *clientRun) error
	// counters snapshots the layers' public counters.
	counters() counters
	// trap sends one fault-triggering request on a fresh connection,
	// checks that it was rewound and its connection closed, and returns
	// its round trip in ns. Only one goroutine may send traps.
	trap() (int64, error)
	mappedBytes() int64
	// timeLayers times layer functions called directly, by metric name.
	timeLayers(tr *tracer) (map[string]float64, error)
	// stop checks that the server never crashed and shuts it down.
	stop() error
}

// buildFunc constructs and loads a fresh target; prepareFunc generates a
// workload's inputs from the seed and returns its buildFunc.
type (
	buildFunc   func(tel *telemetry.Recorder) (target, error)
	prepareFunc func(seed int64, sc scale) (buildFunc, error)
)

// workload is one traffic mix: its set-up, and the trap rate in its
// measured windows.
type workload struct {
	prepare   prepareFunc
	trapEvery int // 0: no traps in the windows
}

var workloads = map[string]workload{
	"kv-get-d1":    {prepare: kvWorkload(kvSpec{depth: 1, readFrac: 0.95, dist: "uniform"})},
	"kv-mixed-d16": {prepare: kvWorkload(kvSpec{depth: 16, readFrac: 0.5, dist: "zipfian"})},
	"kv-attack":    {prepare: kvWorkload(kvSpec{depth: 4, readFrac: 0.95, dist: "uniform"}), trapEvery: attackEvery},
	"http-static":  {prepare: httpWorkload},
}

// Fault rates, in calls of client 1 per trap. The attacker sends one
// trap on a fresh connection per attackEvery calls in kv-attack's
// windows and warm-up. It sends one per probeEvery calls in the
// recovery phase after each window of a fault-free workload, so that
// phase times enough traps for a tail percentile. The fault count
// follows the op count, not wall time.
const (
	attackEvery = 25
	probeEvery  = 2
	// trapBacklog is how many traps client 1 may queue ahead of the
	// attacker at attackEvery, so that a slow trap stalls the attacker
	// alone, not client 1's innocent traffic. At probeEvery client 1
	// queues none and waits for each trap instead: traps sent back to
	// back discard its resent requests again and again.
	trapBacklog = 16
)

// scale sizes one run.
type scale struct {
	records     int           // memcached records loaded in set-up
	window      time.Duration // measured interval (a traced run measures two halves)
	warmCalls   int           // unmeasured calls per client after set-up
	slices      int           // untraced windows per run, each on a fresh server
	probeTime   time.Duration // trap phase after each window of a fault-free workload
	faultProbes int           // idle traps for the per-fault MMU counters
	guardRounds int           // Library.Guard calls timed for core.guard_ns
	streamLen   int           // pre-generated ops per client, replayed cyclically
	probeRounds int           // host probe round trips per rep
	traceDir    string
}

func fullScale(window time.Duration) scale {
	return scale{
		records:     20000,
		window:      window,
		warmCalls:   2000,
		slices:      20,
		probeTime:   200 * time.Millisecond,
		faultProbes: 64,
		guardRounds: 1 << 16,
		streamLen:   1 << 18,
		probeRounds: 4000,
		traceDir:    filepath.Join(".bench_build", "traces"),
	}
}

// counters are the layers' cumulative public counters.
type counters struct {
	switches, monitorCalls, inits, bytesCopied int64 // core: Library.Stats
	reads, bytesRead, bytesWritten, pkruWrites int64 // mem: AddressSpace stats
	rewinds                                    int64
	gets, hits, evictions, lockWaitNs          int64 // memcache.storage
	batchSum, batchN                           int64 // memcache batch-size histogram
}

func (c *counters) addLibrary(l *core.Library) {
	st := l.Stats()
	c.switches += st.DomainSwitches.Load()
	c.monitorCalls += st.MonitorCalls.Load()
	c.inits += st.Inits.Load()
	c.bytesCopied += st.BytesCopied.Load()
}

func (c *counters) addMemory(p *proc.Process) {
	s := p.AddressSpace().Stats().Snapshot()
	c.reads += s.Reads
	c.bytesRead += s.BytesRead
	c.bytesWritten += s.BytesWritten
	c.pkruWrites += s.PKRUWrites
}

func (c counters) sub(o counters) counters {
	return counters{
		switches: c.switches - o.switches, monitorCalls: c.monitorCalls - o.monitorCalls,
		inits: c.inits - o.inits, bytesCopied: c.bytesCopied - o.bytesCopied,
		reads: c.reads - o.reads, bytesRead: c.bytesRead - o.bytesRead,
		bytesWritten: c.bytesWritten - o.bytesWritten, pkruWrites: c.pkruWrites - o.pkruWrites,
		rewinds: c.rewinds - o.rewinds,
		gets:    c.gets - o.gets, hits: c.hits - o.hits, evictions: c.evictions - o.evictions,
		lockWaitNs: c.lockWaitNs - o.lockWaitNs,
		batchSum:   c.batchSum - o.batchSum, batchN: c.batchN - o.batchN,
	}
}

// load is a target together with each client's next call number, so
// successive drives continue the clients' op streams.
type load struct {
	target
	next   [clients]int
	trapAt int // client 1's calls n with n%every == trapAt%every each hand a trap to the attacker
}

// drive runs the clients, each for calls calls or, when calls is 0,
// until d has passed. With traced set, each client records spans on its
// own tracer. With every > 0, an attacker goroutine sends one trap for
// every every-th call of client 1. Client 1 hands the trap over and
// goes on, so its own requests stay innocent traffic. At attackEvery it
// waits only while trapBacklog traps are queued, otherwise while the
// previous trap is in flight. Either way the fault count is fixed by
// the op count. Queued traps are sent before drive returns.
func (l *load) drive(calls int, d time.Duration, traced bool, every int) (*window, error) {
	runs := make([]*clientRun, clients+1) // the last one is the attacker's
	errs := make([]error, clients+1)
	for i := range runs {
		runs[i] = &clientRun{}
	}
	c0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(d)
	if traced {
		for _, cr := range runs {
			cr.tr = newTracer(start)
		}
	}
	backlog := 0
	if every == attackEvery {
		backlog = trapBacklog
	}
	trapc := make(chan int, backlog)
	var attacker sync.WaitGroup
	attacker.Add(1)
	go func() {
		defer attacker.Done()
		for n := range trapc {
			if errs[clients] == nil {
				errs[clients] = l.sendTrap(n, runs[clients])
			}
		}
	}()
	var wg sync.WaitGroup
	for ci := range clients {
		cr := runs[ci]
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := l.next[ci]
			for n := first; calls == 0 || n < first+calls; n++ {
				if calls == 0 && !time.Now().Before(deadline) {
					l.next[ci] = n
					return
				}
				if every > 0 && ci == 1 && n%every == l.trapAt%every {
					trapc <- n
				}
				if err := l.call(ci, n, cr); err != nil {
					errs[ci] = err
					return
				}
			}
			l.next[ci] = first + calls
		}()
	}
	wg.Wait()
	close(trapc)
	attacker.Wait()
	wall := time.Since(start)
	c1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeRuns(runs, wall, c1-c0), nil
}

// sendTrap sends the trap for client 1's call n and records its round
// trip.
func (l *load) sendTrap(n int, cr *clientRun) error {
	t0 := time.Now()
	rtt, err := l.trap()
	if err != nil {
		return err
	}
	cr.recover = append(cr.recover, rtt)
	cr.traps++
	if cr.tr != nil {
		cr.tr.record(spTrap, uint64(1)<<40|uint64(n), -1, t0, t0.Add(time.Duration(rtt)))
	}
	return nil
}

// build sets a target up and warms it.
func build(b buildFunc, tel *telemetry.Recorder, sc scale, seed int64, every int) (*load, error) {
	tg, err := b(tel)
	if err != nil {
		return nil, err
	}
	return warm(tg, sc, seed, every)
}

// warm runs unmeasured calls, with traps at the windows' rate every,
// then collects the garbage set-up left so it is not charged to the
// window. A fault-free workload warms without traps: a rewind's domain
// is re-created lazily, on the next request, and that cost belongs to
// no fault-free window.
func warm(tg target, sc scale, seed int64, every int) (*load, error) {
	ld := &load{target: tg, trapAt: rand.New(rand.NewSource(seed)).Intn(attackEvery * probeEvery)}
	if _, err := ld.drive(sc.warmCalls, 0, false, every); err != nil {
		_ = tg.stop()
		return nil, err
	}
	runtime.GC()
	return ld, nil
}

// report is one run's output.
type report struct {
	correct           bool
	attempted, failed int64
	values            map[string]float64
	notes             []string // n/a reasons and cross-checks, printed before the result
}

func (r *report) na(name, why string) {
	r.values[name] = 0
	r.notes = append(r.notes, fmt.Sprintf("n/a %s: %s", name, why))
}

// windowFigures are one untraced window's end-to-end figures as
// measured, with the host probe's reading around the window and the
// host steal time in it.
type windowFigures struct {
	steal                                                       int64
	probeNs                                                     float64
	setup, ops, rawOps, p50, p90, p99, cpu, rec50, rec90, rec99 float64
}

// runUntraced measures the end-to-end metrics over sc.slices windows,
// each on a freshly built server, so that no single server's memory
// layout or goroutine placement decides the run. Each window's figures
// are computed alone and scaled to the reference host speed by the
// host probe read just before and just after the window (probe.go).
// Each metric is the median of its scaled figure over all windows.
// Throughput is also counted per second of the window's wall time less
// the host steal in it, shared over the CPUs the run uses: steal is
// time the host ran something else while this VM's vCPUs were
// runnable, which the probe's CPU time does not see.
func runUntraced(name string, seed int64, sc scale) (*report, error) {
	b, err := workloads[name].prepare(seed, sc)
	if err != nil {
		return nil, err
	}
	every := workloads[name].trapEvery
	probe := newHostProbe(sc.probeRounds)
	r := &report{correct: true, values: map[string]float64{}}
	var figs []windowFigures
	var calls, first, attempted, traps, mapped int64
	for range sc.slices {
		// Every set-up starts from a heap with no free memory kept from
		// the previous server, as a fresh process would.
		debug.FreeOSMemory()
		t0 := time.Now()
		tg, err := b(nil)
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0)
		ld, err := warm(tg, sc, seed, every)
		if err != nil {
			return nil, err
		}
		f, win, rec, err := measureWindow(ld, probe, sc, every)
		mapped = ld.mappedBytes()
		if serr := ld.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		f.setup = setup.Seconds()
		figs = append(figs, f)
		traps += rec.traps
		calls += win.calls
		first += win.first
		attempted += win.attempt
		r.attempted += win.attempt
		r.failed += win.failed
		if rec != win {
			r.attempted += rec.attempt
			r.failed += rec.failed
		}
	}
	// scaled is a figure at the reference host speed, raw as measured;
	// inv marks a rate, which a slower host lowers.
	scaled := func(field func(windowFigures) float64, inv bool) float64 {
		var v []float64
		for _, f := range figs {
			k := speedFactor(f.probeNs)
			if inv {
				k = 1 / k
			}
			v = append(v, field(f)*k)
		}
		return median(v)
	}
	raw := func(field func(windowFigures) float64) float64 {
		var v []float64
		for _, f := range figs {
			v = append(v, field(f))
		}
		return median(v)
	}
	setupF := func(f windowFigures) float64 { return f.setup }
	opsF := func(f windowFigures) float64 { return f.ops }
	p50F := func(f windowFigures) float64 { return f.p50 }
	p90F := func(f windowFigures) float64 { return f.p90 }
	cpuF := func(f windowFigures) float64 { return f.cpu }
	rec50F := func(f windowFigures) float64 { return f.rec50 }
	v := r.values
	v["setup_s"] = scaled(setupF, false)
	v["ops_per_s"] = scaled(opsF, true)
	v["p50_us"] = scaled(p50F, false)
	v["p90_us"] = scaled(p90F, false)
	v["cpu_us_per_op"] = scaled(cpuF, false)
	v["recover_us_p50"] = scaled(rec50F, false)
	v["ok_ratio"] = 1 - perOp(first, attempted)
	v["mapped_mib"] = float64(mapped) / (1 << 20)
	var steals []int64
	var probes []float64
	for _, f := range figs {
		steals = append(steals, f.steal)
		probes = append(probes, f.probeNs)
	}
	source := fmt.Sprintf("one per %d calls of client 1 during the windows", every)
	if every == 0 {
		source = fmt.Sprintf("one per %d calls of client 1 in a %v phase after each window", probeEvery, sc.probeTime)
	}
	r.notes = append(r.notes,
		fmt.Sprintf("windows: %d of %v, each on a fresh server; every metric but ok_ratio and mapped_mib is the median over the windows, scaled to a host probe of %d ns per round trip (exponent %.1f)",
			sc.slices, sc.window/time.Duration(sc.slices), probeRefNs, probeExp),
		fmt.Sprintf("host probe, ns per round trip: median %.0f, min %.0f, max %.0f", median(probes), slices.Min(probes), slices.Max(probes)),
		fmt.Sprintf("as measured, unscaled: setup_s %.4f, ops_per_s %.0f, p50_us %.2f, p90_us %.2f, cpu_us_per_op %.3f, recover_us_p50 %.1f",
			raw(setupF), raw(opsF), raw(p50F), raw(p90F), raw(cpuF), raw(rec50F)),
		fmt.Sprintf("host steal per window, ms (/proc/stat): %v", steals),
		fmt.Sprintf("ops_per_s per second of wall time with the steal left in, unscaled: %.0f", raw(func(f windowFigures) float64 { return f.rawOps })),
		fmt.Sprintf("samples: p50_us/p90_us over %d blocking calls; recover_us over %d traps sent %s", calls, traps, source),
		fmt.Sprintf("tails, not gated because host contention moves them past any allowed bound: p99_us %.1f, recover_us_p90 %.1f, recover_us_p99 %.1f",
			scaled(func(f windowFigures) float64 { return f.p99 }, false),
			scaled(func(f windowFigures) float64 { return f.rec90 }, false),
			scaled(func(f windowFigures) float64 { return f.rec99 }, false)),
		fmt.Sprintf("fail_ratio %.6f (%d of %d innocent requests in the windows failed first time)",
			perOp(first, attempted), first, attempted))
	return r, nil
}

// measureWindow reads the host probe, drives one measured window on a
// warmed server and reads the probe again. A fault-free window is then
// followed by a phase that times recovery. It returns the window's
// figures as measured (set-up time aside), the window, and the window
// that timed recovery (the same one on kv-attack).
func measureWindow(ld *load, probe *hostProbe, sc scale, every int) (windowFigures, *window, *window, error) {
	var f windowFigures
	before, err := probe.read()
	if err != nil {
		return f, nil, nil, err
	}
	steal0, _ := stealMs()
	win, err := ld.drive(0, sc.window/time.Duration(sc.slices), false, every)
	steal1, _ := stealMs()
	if err != nil {
		return f, nil, nil, err
	}
	after, err := probe.read()
	if err != nil {
		return f, nil, nil, err
	}
	rec := win
	if every == 0 {
		if rec, err = ld.drive(0, sc.probeTime, false, probeEvery); err != nil {
			return f, nil, nil, err
		}
	}
	granted := win.wall - time.Duration(steal1-steal0)*time.Millisecond/time.Duration(runtime.GOMAXPROCS(0))
	f = windowFigures{
		steal:   steal1 - steal0,
		probeNs: (before + after) / 2,
		ops:     float64(win.done) / granted.Seconds(),
		rawOps:  win.opsPerSec(),
		p50:     float64(quantile(win.lat, 0.50)) / 1e3,
		p90:     float64(quantile(win.lat, 0.90)) / 1e3,
		p99:     float64(quantile(win.lat, 0.99)) / 1e3,
		cpu:     float64(win.cpu.Nanoseconds()) / 1e3 / float64(win.done),
		rec50:   float64(quantile(rec.recover, 0.50)) / 1e3,
		rec90:   float64(quantile(rec.recover, 0.90)) / 1e3,
		rec99:   float64(quantile(rec.recover, 0.99)) / 1e3,
	}
	return f, win, rec, nil
}

// runTraced measures the per-layer metrics: one untraced half-window on
// a plain server, then one traced half-window on a server with a
// telemetry recorder attached and spans recorded around every layer
// call. Counters are read before and after the traced window only.
func runTraced(name string, seed int64, sc scale) (*report, error) {
	// The guard is timed first, before any server or input is live, so
	// no other heap or worker shares its CPU.
	layerTr := newTracer(time.Now())
	layerTr.keepAll = true
	guard, err := guardNs(sc.guardRounds, layerTr)
	if err != nil {
		return nil, err
	}
	b, err := workloads[name].prepare(seed, sc)
	if err != nil {
		return nil, err
	}
	every := workloads[name].trapEvery
	half := sc.window / 2
	plainLd, err := build(b, nil, sc, seed, every)
	if err != nil {
		return nil, err
	}
	plain, err := plainLd.drive(0, half, false, every)
	if serr := plainLd.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	// Every transition is recorded: sampling one in 2^k by the switch
	// count would alias with httpd's fixed Enter/Exit pattern and never
	// see an Exit.
	tel := telemetry.New(telemetry.Options{TransitionSampleShift: -1})
	tel.SetEnabled(false) // histograms see the window only
	ld, err := build(b, tel, sc, seed, every)
	if err != nil {
		return nil, err
	}
	r, err := traceWindow(ld, tel, plain, layerTr, guard, name, seed, sc)
	if serr := ld.stop(); err == nil {
		err = serr
	}
	return r, err
}

func traceWindow(tg *load, tel *telemetry.Recorder, plain *window, layerTr *tracer, guard float64, name string, seed int64, sc scale) (*report, error) {
	c0 := tg.counters()
	tel.SetEnabled(true)
	win, err := tg.drive(0, sc.window/2, true, workloads[name].trapEvery)
	tel.SetEnabled(false)
	if err != nil {
		return nil, err
	}
	d := tg.counters().sub(c0)
	reg := tel.Registry()
	enter := reg.Histogram("sdrad_enter_latency_ns", "")
	exit := reg.Histogram("sdrad_exit_latency_ns", "")

	extra, err := tg.timeLayers(layerTr)
	if err != nil {
		return nil, err
	}
	p0 := tg.counters()
	for range sc.faultProbes {
		if _, err := tg.trap(); err != nil {
			return nil, err
		}
	}
	pd := tg.counters().sub(p0)

	ops := win.done
	r := &report{correct: true, attempted: plain.attempt + win.attempt, failed: plain.failed + win.failed,
		values: map[string]float64{}}
	v := r.values
	spanNs, _ := win.spanTotals()
	layerNs := spanNs[spMemcacheDo] + spanNs[spMemcachePipeline] + spanNs[spHTTPDo]
	v["client.self_ns_per_op"] = perOp(spanNs[spOp]-layerNs, ops)
	v["core.switches_per_op"] = perOp(d.switches, ops)
	v["core.monitor_calls_per_op"] = perOp(d.monitorCalls, ops)
	v["core.bytes_copied_per_op"] = perOp(d.bytesCopied, ops)
	v["core.enter_ns_p50"] = float64(enter.Quantile(0.5))
	v["core.exit_ns_p50"] = float64(exit.Quantile(0.5))
	v["core.guard_ns"] = guard
	v["core.est_ns_per_op"] = v["core.switches_per_op"] / 2 * guard
	v["mem.reads_per_op"] = perOp(d.reads, ops)
	v["mem.bytes_read_per_op"] = perOp(d.bytesRead, ops)
	v["mem.bytes_written_per_op"] = perOp(d.bytesWritten, ops)
	v["mem.pkru_writes_per_op"] = perOp(d.pkruWrites, ops)
	v["mem.bytes_read_per_fault"] = perOp(pd.bytesRead, int64(sc.faultProbes))
	v["trace.overhead_pct"] = (plain.opsPerSec() - win.opsPerSec()) / plain.opsPerSec() * 100
	if win.traps > 0 {
		v["core.inits_per_fault"] = perOp(d.inits, win.traps)
	} else {
		r.na("core.inits_per_fault", "no fault in the window")
	}

	if name == "http-static" {
		var by [2][]int64
		for _, cr := range win.runs {
			for k := range by {
				by[k] = append(by[k], cr.latBy[k]...)
			}
		}
		for k, suffix := range []string{"1k", "64k"} {
			slices.Sort(by[k])
			v["httpd.call_ns_p50."+suffix] = float64(quantile(by[k], 0.5))
		}
		v["httpd.rewinds"] = float64(d.rewinds)
		for _, m := range []string{"memcache.batch_mean", "memcache.queue_depth_mean",
			"memcache.rewinds_per_fault", "memcache.collateral_per_fault",
			"memcache.storage.lock_wait_ns_per_op", "memcache.storage.hit_ratio",
			"memcache.storage.evictions", "memcache.storage.get_ns", "memcache.storage.set_ns"} {
			r.na(m, "the workload does not use memcache")
		}
	} else {
		var qsum, qn int64
		for _, cr := range win.runs {
			qsum, qn = qsum+cr.qsum, qn+cr.qn
		}
		v["memcache.batch_mean"] = perOp(d.batchSum, d.batchN)
		v["memcache.queue_depth_mean"] = perOp(qsum, qn)
		v["memcache.storage.lock_wait_ns_per_op"] = perOp(d.lockWaitNs, ops)
		v["memcache.storage.hit_ratio"] = perOp(d.hits, d.gets)
		v["memcache.storage.evictions"] = float64(d.evictions)
		for k, x := range extra {
			v[k] = x
		}
		if win.traps > 0 {
			v["memcache.rewinds_per_fault"] = perOp(d.rewinds, win.traps)
			v["memcache.collateral_per_fault"] = perOp(win.discard, win.traps)
		} else {
			r.na("memcache.rewinds_per_fault", "no fault in the window")
			r.na("memcache.collateral_per_fault", "no fault in the window")
		}
		for _, m := range []string{"httpd.call_ns_p50.1k", "httpd.call_ns_p50.64k", "httpd.rewinds"} {
			r.na(m, "the workload does not use httpd")
		}
	}
	if hr, ok := v["memcache.storage.hit_ratio"]; ok && d.gets > 0 && hr != 1 {
		r.correct = false
		r.notes = append(r.notes, fmt.Sprintf("check failed: memcache.storage.hit_ratio %.6f, want 1", hr))
	}
	if d.evictions != 0 {
		r.correct = false
		r.notes = append(r.notes, fmt.Sprintf("check failed: %d evictions, want 0", d.evictions))
	}
	if win.traps > 0 && d.rewinds != win.traps {
		r.correct = false
		r.notes = append(r.notes, fmt.Sprintf("check failed: %d rewinds for %d faults", d.rewinds, win.traps))
	}
	if name == "http-static" && d.rewinds != 0 {
		r.correct = false
		r.notes = append(r.notes, fmt.Sprintf("check failed: httpd.rewinds %d, want 0", d.rewinds))
	}

	r.notes = append(r.notes,
		fmt.Sprintf("erim: core.est_ns_per_op %.0f ns (core.switches_per_op %.2f / 2 × core.guard_ns %.0f) vs p50_us %.2f untraced: %.0f%% of p50",
			v["core.est_ns_per_op"], v["core.switches_per_op"], guard,
			float64(quantile(plain.lat, 0.5))/1e3, v["core.est_ns_per_op"]/float64(quantile(plain.lat, 0.5))*100),
		fmt.Sprintf("trace: untraced %.0f ops/s, traced %.0f ops/s, %d calls traced; per-fault MMU counters over %d idle traps",
			plain.opsPerSec(), win.opsPerSec(), win.calls, sc.faultProbes))
	trs := []*tracer{layerTr}
	for _, cr := range win.runs {
		trs = append(trs, cr.tr)
	}
	path := filepath.Join(sc.traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := writeSpans(path, trs); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, "spans written to "+path)
	return r, nil
}

// guardNs times an empty guarded call on a library the benchmark owns:
// Library.Guard around one Enter/Exit pair of a persistent domain, with
// nothing done inside. It returns the median over batches, in ns.
func guardNs(rounds int, tr *tracer) (float64, error) {
	p := proc.NewProcess("perfbench-guard")
	defer func() {
		p.Shutdown()
		p.Wait()
	}()
	lib, err := core.Setup(p)
	if err != nil {
		return 0, fmt.Errorf("core setup: %w", err)
	}
	const batches = 32
	per := max(1, rounds/batches)
	var samples []float64
	err = p.Attach("guard", func(t *proc.Thread) error {
		guard := func() error {
			return lib.Guard(t, 1, func() error {
				if err := lib.Enter(t, 1); err != nil {
					return err
				}
				return lib.Exit(t)
			}, core.Accessible())
		}
		for range per {
			if err := guard(); err != nil {
				return err
			}
		}
		for b := range batches {
			t0 := time.Now()
			for range per {
				if err := guard(); err != nil {
					return err
				}
			}
			t1 := time.Now()
			samples = append(samples, float64(t1.Sub(t0))/float64(per))
			tr.record(spCoreGuard, uint64(b), -1, t0, t1)
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("guard timing: %w", err)
	}
	return median(samples), nil
}
