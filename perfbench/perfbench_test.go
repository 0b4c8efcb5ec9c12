package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// tinyScale runs every phase of a workload in well under a second.
func tinyScale(dir string) func(time.Duration) scale {
	return func(time.Duration) scale {
		return scale{
			records:     512,
			window:      200 * time.Millisecond,
			warmCalls:   20,
			slices:      2,
			probeTime:   50 * time.Millisecond,
			faultProbes: 4,
			guardRounds: 256,
			streamLen:   1024,
			probeRounds: 64,
			traceDir:    dir,
		}
	}
}

// runJSON runs the command and decodes its last output line.
func runJSON(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut, tinyScale(t.TempDir())); code != 0 {
		t.Fatalf("%v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	return res
}

// TestWorkloads runs every workload untraced and traced at tiny scale,
// with all output checks, and checks the reported metrics.
func TestWorkloads(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := runJSON(t, "--workload", name, "--seed", "7", "--seconds", "1", "--trace", "0")
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
				t.Fatalf("untraced result %+v", res)
			}
			for _, d := range endToEnd {
				if m := res.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}

			res = runJSON(t, "--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1")
			if !res.Correct || len(res.Metrics) != len(perLayer) {
				t.Fatalf("traced result %+v", res)
			}
			// want maps a metric to its value; -1 asks only for a positive
			// value.
			want := map[string]float64{"core.switches_per_op": -1, "core.guard_ns": -1}
			switch name {
			case "http-static":
				want["httpd.rewinds"] = 0
				want["core.switches_per_op"] = 4
			case "kv-attack":
				want["memcache.rewinds_per_fault"] = 1
				want["memcache.storage.hit_ratio"] = 1
				// A rewound domain is re-created by the next request, so
				// the window's first and last faults can each move an Init
				// across its edge.
				if got := res.Metrics["core.inits_per_fault"].Value; math.Abs(got-1) > 0.05 {
					t.Errorf("core.inits_per_fault = %v, want 1 within 5%%", got)
				}
			default:
				want["memcache.storage.hit_ratio"] = 1
				want["memcache.storage.evictions"] = 0
			}
			for m, v := range want {
				got := res.Metrics[m].Value
				if (v < 0 && got <= 0) || (v >= 0 && got != v) {
					t.Errorf("%s = %v, want %v", m, got, v)
				}
			}
		})
	}
}

// TestWrongReplyFailsRun corrupts one expected get reply: the client
// must stop the run with an error instead of counting a failure.
func TestWrongReplyFailsRun(t *testing.T) {
	sc := tinyScale(t.TempDir())(0)
	in, err := genKV(kvSpec{depth: 1, readFrac: 1, dist: "uniform"}, sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	k := in.stream[0][0].Index
	in.hit[k] = bytes.Replace(in.hit[k], []byte("v"), []byte("x"), 1)
	tg, err := newKVTarget(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tg.stop() }()
	ld := &load{target: tg}
	if _, err := ld.drive(1, 0, false, 0); err == nil || !strings.Contains(err.Error(), "returned") {
		t.Fatalf("drive error %v, want a wrong-reply error", err)
	}
}

// TestHostProbe reads the probe and checks the scaling around the
// reference speed: a slower host scales times down, a faster one up.
func TestHostProbe(t *testing.T) {
	ns, err := newHostProbe(64).read()
	if err != nil || ns <= 0 {
		t.Fatalf("probe read %v ns, err %v", ns, err)
	}
	if f := speedFactor(probeRefNs); f != 1 {
		t.Errorf("speedFactor at the reference = %v, want 1", f)
	}
	if slow, fast := speedFactor(2*probeRefNs), speedFactor(probeRefNs/2); !(slow < 1 && fast > 1) {
		t.Errorf("speedFactor slow host %v, fast host %v", slow, fast)
	}
}

func TestCheckHTTP(t *testing.T) {
	ok := []byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc")
	for _, c := range []struct {
		resp []byte
		size int
		good bool
	}{
		{ok, 3, true},
		{ok, 4, false},
		{[]byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabc"), 3, true},
		{[]byte("HTTP/1.1 200 OK\r\nContent-Length: 30\r\n\r\nabc"), 3, false},
		{[]byte("HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nabc"), 3, false},
		{[]byte("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nab"), 3, false},
	} {
		if err := checkHTTP(c.resp, c.size); (err == nil) != c.good {
			t.Errorf("checkHTTP(%q, %d) = %v", c.resp, c.size, err)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the command in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	slices.Sort(names)
	slices.Sort(have)
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, have)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, command reports %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), command %s (%s)", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
