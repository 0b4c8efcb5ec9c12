// Command perfbench is the repository benchmark. It drives the
// memcached and httpd SDRaD builds in-process through their public entry
// points, checks every reply, and prints end-to-end metrics (untraced
// run) or per-layer metrics (traced run). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. See README.md for the workloads and what each metric
// should move.
//
//	perfbench --workload kv-get-d1 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// metricDef is one reported metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"ok_ratio", "ratio"},
	{"cpu_us_per_op", "us"},
	{"mapped_mib", "MiB"},
	{"recover_us_p50", "us"},
}

// perLayer are the traced run's metrics.
var perLayer = []metricDef{
	{"client.self_ns_per_op", "ns"},
	{"memcache.batch_mean", "count"},
	{"memcache.queue_depth_mean", "count"},
	{"memcache.rewinds_per_fault", "count"},
	{"memcache.collateral_per_fault", "count"},
	{"memcache.storage.lock_wait_ns_per_op", "ns"},
	{"memcache.storage.hit_ratio", "ratio"},
	{"memcache.storage.evictions", "count"},
	{"memcache.storage.get_ns", "ns"},
	{"memcache.storage.set_ns", "ns"},
	{"core.switches_per_op", "count"},
	{"core.monitor_calls_per_op", "count"},
	{"core.bytes_copied_per_op", "B"},
	{"core.inits_per_fault", "count"},
	{"core.enter_ns_p50", "ns"},
	{"core.exit_ns_p50", "ns"},
	{"core.guard_ns", "ns"},
	{"core.est_ns_per_op", "ns"},
	{"mem.reads_per_op", "count"},
	{"mem.bytes_read_per_op", "B"},
	{"mem.bytes_written_per_op", "B"},
	{"mem.pkru_writes_per_op", "count"},
	{"mem.bytes_read_per_fault", "B"},
	{"httpd.call_ns_p50.1k", "ns"},
	{"httpd.call_ns_p50.64k", "ns"},
	{"httpd.rewinds", "count"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullScale))
}

// run parses the flags, runs one workload and prints its metrics. It
// returns the exit code: 0 only when every output check passed.
func run(args []string, stdout, stderr io.Writer, sizing func(time.Duration) scale) int {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	// The load shape is two server workers and two clients on two CPUs.
	runtime.GOMAXPROCS(2)
	sc := sizing(time.Duration(*seconds) * time.Second)
	defs, runFn := endToEnd, runUntraced
	if *trace == 1 {
		defs, runFn = perLayer, runTraced
	}
	rep, err := runFn(*workload, *seed, sc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d\n", *workload, *seed, *seconds, *trace)
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-38s %16.4f %s\n", d.name, v, d.unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
