// Package serve holds the client-event plumbing the memcached and httpd
// servers share: the build-variant enum, the event a client submits to a
// worker queue, the per-request result, and the client halves of Do,
// DoPipeline and Inspect. Each server keeps its own queues and worker
// loops; the functions here take the target queue, the server's done
// channel and its server-down error as parameters.
package serve

import "sdrad/internal/proc"

// Variant selects the build under test (Figures 4 and 5 of the paper).
type Variant int

// Build variants.
const (
	// VariantVanilla is the unmodified baseline (glibc-like allocator).
	VariantVanilla Variant = iota + 1
	// VariantTLSF swaps the allocator for TLSF but adds no isolation.
	VariantTLSF
	// VariantSDRaD is the hardened build: request handling runs in
	// isolated nested domains behind a recovery point.
	VariantSDRaD
)

func (v Variant) String() string {
	switch v {
	case VariantVanilla:
		return "vanilla"
	case VariantTLSF:
		return "tlsf"
	case VariantSDRaD:
		return "sdrad"
	default:
		return "unknown"
	}
}

// Result is one request's outcome. Closed reports that the server closed
// the connection (a close request, attack recovery, or load shedding).
type Result struct {
	Resp   []byte
	Closed bool
	Err    error
}

// Event is one client submission to a worker queue. It is one of:
//   - a single request: Req, answered on Resp;
//   - a pipelined run handled together: Reqs, answered on RespN with one
//     Result per request, in order;
//   - a control event: Inspect, run on the worker thread between
//     requests and answered on Resp with only Err set.
type Event[C any] struct {
	Conn    C
	Req     []byte
	Resp    chan Result
	Reqs    [][]byte
	RespN   chan []Result
	Inspect func(t *proc.Thread) error
}

// Do submits one request on q and waits for its result. A server that
// terminates (done closes) before answering yields a closed result
// carrying down.
func Do[C any](q chan<- *Event[C], done <-chan struct{}, down error, conn C, req []byte) Result {
	ev := &Event[C]{Conn: conn, Req: req, Resp: make(chan Result, 1)}
	select {
	case q <- ev:
	case <-done:
		return Result{Closed: true, Err: down}
	}
	select {
	case r := <-ev.Resp:
		return r
	case <-done:
		return Result{Closed: true, Err: down}
	}
}

// DoPipeline submits reqs back-to-back on q, split into events of at
// most maxBatch requests, and returns one result per request, in order.
// Every event goes to the same queue, so one worker handles the whole
// pipeline. Requests left unanswered when the server terminates report
// a closed result carrying down.
func DoPipeline[C any](q chan<- *Event[C], done <-chan struct{}, down error, conn C, reqs [][]byte, maxBatch int) []Result {
	out := make([]Result, 0, len(reqs))
	var evs []*Event[C]
	for off := 0; off < len(reqs); off += maxBatch {
		end := min(off+maxBatch, len(reqs))
		ev := &Event[C]{Conn: conn, Reqs: reqs[off:end], RespN: make(chan []Result, 1)}
		select {
		case q <- ev:
			evs = append(evs, ev)
		case <-done:
			return closeRest(out, len(reqs), down)
		}
	}
	for _, ev := range evs {
		select {
		case rs := <-ev.RespN:
			out = append(out, rs...)
		case <-done:
			return closeRest(out, len(reqs), down)
		}
	}
	return out
}

// closeRest pads out to n results with server-down closes.
func closeRest(out []Result, n int, down error) []Result {
	for len(out) < n {
		out = append(out, Result{Closed: true, Err: down})
	}
	return out
}

// Inspect runs fn on the thread of the worker that drains q, between
// requests, and returns its error (down when the server terminates
// first). fn must leave the thread in the root domain.
func Inspect[C any](q chan<- *Event[C], done <-chan struct{}, down error, fn func(t *proc.Thread) error) error {
	ev := &Event[C]{Inspect: fn, Resp: make(chan Result, 1)}
	select {
	case q <- ev:
	case <-done:
		return down
	}
	select {
	case r := <-ev.Resp:
		return r.Err
	case <-done:
		return down
	}
}
