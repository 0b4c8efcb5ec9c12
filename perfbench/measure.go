package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clients is the number of client goroutines; each owns one connection
// and blocks on its reply (closed loop).
const clients = 2

// serverWorkers is the worker count of every server under test.
const serverWorkers = 2

// clientRun is one client goroutine's record of a measured window.
type clientRun struct {
	calls     int64   // blocking layer calls completed
	attempted int64   // innocent requests issued
	done      int64   // innocent requests completed and checked
	firstFail int64   // innocent requests whose first attempt was discarded or errored
	discarded int64   // innocent requests discarded with their connection, retries included
	failed    int64   // innocent requests that never completed
	lat       []int64 // ns per blocking call
	latBy     [2][]int64
	recover   []int64 // ns per trap round trip
	traps     int64
	qsum      int64 // summed queue-depth samples (traced windows only)
	qn        int64
	tr        *tracer // nil outside traced windows
}

// endCall records one blocking call: t0..t1 is the layer call, opStart
// the start of the client's op (zero outside traced windows). kind
// selects the latency split (httpd's two file sizes) and the span name.
func (cr *clientRun) endCall(req uint64, opStart, t0, t1 time.Time, kind int, name spanName) {
	d := int64(t1.Sub(t0))
	cr.calls++
	cr.lat = append(cr.lat, d)
	if cr.tr == nil {
		return
	}
	cr.latBy[kind] = append(cr.latBy[kind], d)
	op := cr.tr.record(spOp, req, -1, opStart, time.Now())
	cr.tr.record(name, req, op, t0, t1)
}

// spanName names a span kind: the client's op, or the layer call
// beneath it.
type spanName uint8

const (
	spOp spanName = iota
	spMemcacheDo
	spMemcachePipeline
	spTrap
	spHTTPDo
	spStorageGet
	spStorageSet
	spCoreGuard
	numSpans
)

var spanNames = [numSpans]string{
	"client.op", "memcache.Conn.Do", "memcache.Conn.DoPipeline", "trap",
	"httpd.Conn.Do", "memcache.Storage.AppendGet", "memcache.Storage.Set", "core.Library.Guard",
}

// span is one recorded interval. Parent indexes the same tracer's
// spans (-1 for a root); Req is the request ID all spans of one client
// op share.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans caps the spans one tracer keeps for the trace file;
// per-name totals cover every span.
const maxKeptSpans = 1 << 15

// keepEvery keeps the spans of one request in keepEvery for the trace
// file, so the file samples the whole window.
const keepEvery = 64

// tracer keeps one goroutine's spans in memory. Every span adds to the
// per-name totals; the spans of sampled requests are also kept whole.
type tracer struct {
	epoch   time.Time
	keepAll bool // keep every span, not one request in keepEvery
	kept    []span
	ns      [numSpans]int64
	n       [numSpans]int64
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// record adds a span and returns its index in kept (-1 when not kept).
func (t *tracer) record(name spanName, req uint64, parent int, start, end time.Time) int {
	d := int64(end.Sub(start))
	t.ns[name] += d
	t.n[name]++
	if (!t.keepAll && req%keepEvery != 0) || len(t.kept) >= maxKeptSpans {
		return -1
	}
	t.kept = append(t.kept, span{
		Name: spanNames[name], ID: len(t.kept), Parent: parent, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return len(t.kept) - 1
}

// writeSpans writes every tracer's kept spans as JSON lines. Span IDs
// and parents are renumbered to be unique across tracers.
func writeSpans(path string, trs []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, t := range trs {
		for _, s := range t.kept {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			if err := enc.Encode(s); err != nil {
				_ = f.Close()
				return fmt.Errorf("trace file: %w", err)
			}
		}
		base += len(t.kept)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

// window is the merged outcome of the clients' runs over one measured
// interval.
type window struct {
	runs    []*clientRun
	wall    time.Duration
	cpu     time.Duration
	lat     []int64 // sorted
	recover []int64 // sorted
	done    int64
	calls   int64
	attempt int64
	first   int64
	discard int64
	failed  int64
	traps   int64
}

func mergeRuns(runs []*clientRun, wall, cpu time.Duration) *window {
	w := &window{runs: runs, wall: wall, cpu: cpu}
	for _, cr := range runs {
		w.lat = append(w.lat, cr.lat...)
		w.recover = append(w.recover, cr.recover...)
		w.done += cr.done
		w.calls += cr.calls
		w.attempt += cr.attempted
		w.first += cr.firstFail
		w.discard += cr.discarded
		w.failed += cr.failed
		w.traps += cr.traps
	}
	slices.Sort(w.lat)
	slices.Sort(w.recover)
	return w
}

func (w *window) opsPerSec() float64 { return float64(w.done) / w.wall.Seconds() }

// spanTotals sums the tracers' per-name totals.
func (w *window) spanTotals() (ns, n [numSpans]int64) {
	for _, cr := range w.runs {
		if cr.tr == nil {
			continue
		}
		for i := range ns {
			ns[i] += cr.tr.ns[i]
			n[i] += cr.tr.n[i]
		}
	}
	return ns, n
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median of unsorted float samples.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// stealMs reads the time the host ran something else while this VM's
// vCPUs were runnable, summed over vCPUs, in ms (USER_HZ is 100 on
// Linux). ok is false where /proc/stat is not available.
func stealMs() (ms int64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	j, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return j * 10, true
}

// perOp divides a counter delta by an op count.
func perOp(v, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(v) / float64(n)
}
