package main

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"
)

// The host probe measures how fast the host runs this kind of code
// right now. On a shared 2-vCPU VM, the CPU time one request costs
// swings by 25–30% over seconds to minutes with the host's load: a
// busy hyperthread sibling, a contended cache, a slow cross-CPU
// wake-up. The probe does what a request does, in code the program
// does not share: one goroutine hands a key to another over a channel,
// which looks it up in a map under a mutex, copies the 100-byte value
// and hands it back, and the first compares it. Its CPU time per round
// trip moves with the server's CPU time per request, and it does not
// move when the program changes. Every time of the untraced run is
// multiplied by speedFactor of the probe's reading around its window,
// which reports it at one fixed host speed.

// probeRefNs is the reference host speed: the probe's CPU time per
// round trip, in ns, at which times are reported unscaled. It is about
// what a calm 2-vCPU VM gives with GOMAXPROCS 2 (1.0–1.8 µs measured).
const probeRefNs = 1500

// probeExp is how strongly a figure follows the probe. A request also
// computes, and the host slows its computing less than its hand-offs,
// so the program's times move with the probe's to about the power 0.6:
// the log-log slope of run medians against the probe over 8 runs of
// kv-attack was 0.55–0.69 per metric, and mostly 0.5–0.8 on the other
// workloads.
const probeExp = 0.6

// probeReps is how many times one probe reading runs the probe's round
// trips; the reading is their mean.
const probeReps = 10

const (
	probeKeys      = 20000
	probeValueSize = 100
)

// hostProbe holds the probe's map, built once.
type hostProbe struct {
	keys   []string
	values map[string][]byte
	rounds int // round trips per rep
}

func newHostProbe(rounds int) *hostProbe {
	p := &hostProbe{values: make(map[string][]byte, probeKeys), rounds: rounds}
	for i := range probeKeys {
		k := fmt.Sprintf("probe%010d", i*7919)
		p.keys = append(p.keys, k)
		p.values[k] = bytes.Repeat([]byte{byte(i)}, probeValueSize)
	}
	return p
}

// read returns the probe's CPU time per round trip in ns, over
// probeReps reps. The mean, not the median: hand-offs land on one CPU
// or cross to the other in runs, and a request mixes both as the probe
// does.
func (p *hostProbe) read() (float64, error) {
	var total time.Duration
	for range probeReps {
		d, err := p.rep()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return float64(total) / float64(probeReps*p.rounds), nil
}

// speedFactor is the factor that brings a time measured at the probe's
// reading probeNs to the reference host speed.
func speedFactor(probeNs float64) float64 { return math.Pow(probeRefNs/probeNs, probeExp) }

// rep runs the probe's round trips once and returns the process's CPU
// time over them. The server under test is idle meanwhile.
func (p *hostProbe) rep() (time.Duration, error) {
	req := make(chan int)
	resp := make(chan []byte)
	var mu sync.Mutex
	var served sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		buf := make([]byte, 0, 2*probeValueSize)
		for i := range req {
			mu.Lock()
			buf = append(buf[:0], p.values[p.keys[i]]...)
			mu.Unlock()
			resp <- buf
		}
	}()
	c0, err := cpuTime()
	if err != nil {
		close(req)
		served.Wait()
		return 0, err
	}
	x := uint32(7)
	var bad error
	for range p.rounds {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		i := int(x % probeKeys)
		req <- i
		if got := <-resp; bad == nil && !bytes.Equal(got, p.values[p.keys[i]]) {
			bad = fmt.Errorf("host probe: key %d returned a wrong value", i)
		}
	}
	c1, err := cpuTime()
	close(req)
	served.Wait()
	if err == nil {
		err = bad
	}
	return c1 - c0, err
}
