package serve

import (
	"errors"
	"testing"

	"sdrad/internal/proc"
)

var errDown = errors.New("down")

// echoWorker answers every event on q until done closes: a request with
// its own bytes, a pipelined event with one result per request.
func echoWorker(q chan *Event[int], done chan struct{}) {
	for {
		select {
		case <-done:
			return
		case ev := <-q:
			switch {
			case ev.Inspect != nil:
				ev.Resp <- Result{Err: ev.Inspect(nil)}
			case ev.Reqs != nil:
				rs := make([]Result, len(ev.Reqs))
				for i, r := range ev.Reqs {
					rs[i] = Result{Resp: r}
				}
				ev.RespN <- rs
			default:
				ev.Resp <- Result{Resp: ev.Req}
			}
		}
	}
}

func TestClientHalves(t *testing.T) {
	q, done := make(chan *Event[int], 4), make(chan struct{})
	defer close(done)
	go echoWorker(q, done)
	if r := Do(q, done, errDown, 1, []byte("a")); string(r.Resp) != "a" || r.Closed || r.Err != nil {
		t.Fatalf("Do = %+v", r)
	}
	reqs := [][]byte{[]byte("0"), []byte("1"), []byte("2"), []byte("3"), []byte("4")}
	rs := DoPipeline(q, done, errDown, 1, reqs, 2)
	if len(rs) != len(reqs) {
		t.Fatalf("DoPipeline returned %d results, want %d", len(rs), len(reqs))
	}
	for i, r := range rs {
		if string(r.Resp) != string(reqs[i]) {
			t.Fatalf("result %d = %q, want %q (order lost across chunks)", i, r.Resp, reqs[i])
		}
	}
	errProbe := errors.New("probe")
	if err := Inspect(q, done, errDown, func(*proc.Thread) error { return errProbe }); err != errProbe {
		t.Fatalf("Inspect = %v, want the closure's error", err)
	}
}

func TestClientHalvesServerDown(t *testing.T) {
	q, done := make(chan *Event[int]), make(chan struct{})
	close(done)
	if r := Do(q, done, errDown, 1, []byte("a")); !r.Closed || r.Err != errDown {
		t.Fatalf("Do on a stopped server = %+v", r)
	}
	rs := DoPipeline(q, done, errDown, 1, [][]byte{nil, nil, nil}, 2)
	if len(rs) != 3 {
		t.Fatalf("DoPipeline returned %d results, want 3", len(rs))
	}
	for i, r := range rs {
		if !r.Closed || r.Err != errDown {
			t.Fatalf("result %d on a stopped server = %+v", i, r)
		}
	}
	if err := Inspect(q, done, errDown, func(*proc.Thread) error { return nil }); err != errDown {
		t.Fatalf("Inspect on a stopped server = %v", err)
	}
}

func TestVariantString(t *testing.T) {
	for v, want := range map[Variant]string{VariantVanilla: "vanilla", VariantTLSF: "tlsf", VariantSDRaD: "sdrad", 0: "unknown"} {
		if got := v.String(); got != want {
			t.Errorf("Variant(%d) = %q, want %q", int(v), got, want)
		}
	}
}
