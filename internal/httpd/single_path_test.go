package httpd

import (
	"bytes"
	"errors"
	"testing"

	"sdrad/internal/cryptolib"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
)

// workerCounts snapshots the worker's resilience counters.
type workerCounts struct{ rewinds, degraded, shed int64 }

func countsOf(w *Worker) workerCounts {
	return workerCounts{w.Rewinds(), w.Degraded(), w.Shed()}
}

// TestDoMatchesOneRequestPipeline pins the single guarded path: on a
// fresh hardened worker, Conn.Do and a one-request DoPipeline must give
// the same bytes, close and error, and move the same counters, for every
// kind of request outcome.
func TestDoMatchesOneRequestPipeline(t *testing.T) {
	cases := []struct {
		name string
		req  []byte
		// ladder, when set, is the policy state the parser domain is put
		// in before the request.
		ladder     policy.State
		wantPrefix string
		wantClosed bool
		wantDelta  workerCounts
	}{
		{name: "200", req: FormatRequest("/index.html", true), wantPrefix: "HTTP/1.1 200 OK"},
		{name: "HEAD", req: []byte("HEAD /big.bin HTTP/1.1\r\nHost: x\r\n\r\n"), wantPrefix: "HTTP/1.1 200 OK"},
		{name: "404", req: FormatRequest("/missing.html", true), wantPrefix: "HTTP/1.1 404"},
		{name: "400", req: []byte("garbage\r\n\r\n"), wantPrefix: "HTTP/1.1 400", wantClosed: true},
		{name: "connection-close", req: FormatRequest("/index.html", false), wantPrefix: "HTTP/1.1 200 OK", wantClosed: true},
		{name: "uri-underflow-trap", req: FormatRequest(attackURI(), true), wantClosed: true,
			wantDelta: workerCounts{rewinds: 1}},
		{name: "malicious-client-cert", req: certRequest("/index.html", cryptolib.MaliciousCertificate()), wantClosed: true,
			wantDelta: workerCounts{rewinds: 1}},
		{name: "quarantined", req: FormatRequest("/index.html", true), ladder: policy.StateQuarantined,
			wantPrefix: "HTTP/1.1 503 Service Unavailable\r\n", wantDelta: workerCounts{degraded: 1}},
		{name: "shedding", req: FormatRequest("/index.html", true), ladder: policy.StateShedding, wantClosed: true,
			wantDelta: workerCounts{shed: 1}},
	}
	// run serves tc.req through call on a fresh hardened worker and
	// returns the outcome and the counter deltas.
	run := func(t *testing.T, ladder policy.State, call func(c *Conn) PipelineResult) (PipelineResult, workerCounts) {
		t.Helper()
		clk := &policy.ManualClock{}
		pcfg := policy.Config{Clock: clk.Now, BackoffThreshold: 1, QuarantineThreshold: 1, ShedThreshold: -1}
		if ladder == policy.StateShedding {
			pcfg.ShedThreshold = 1
		}
		eng := policy.New(pcfg)
		m, err := NewMaster(Config{
			Variant:           VariantSDRaD,
			Files:             testFiles,
			VerifyClientCerts: true,
			Policy:            eng,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		w := m.Worker(0)
		if ladder != policy.StateHealthy {
			// Escalate only once the worker's parser domain exists.
			if err := w.Inspect(func(*proc.Thread) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if dec := eng.OnRewind(int(parserUDI)); dec.State != ladder {
				t.Fatalf("ladder state = %s, want %s", dec.State, ladder)
			}
		}
		before := countsOf(w)
		r := call(w.NewConn())
		after := countsOf(w)
		return r, workerCounts{after.rewinds - before.rewinds, after.degraded - before.degraded, after.shed - before.shed}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			single, dSingle := run(t, tc.ladder, func(c *Conn) PipelineResult {
				resp, closed, err := c.Do(tc.req)
				return PipelineResult{Resp: resp, Closed: closed, Err: err}
			})
			piped, dPiped := run(t, tc.ladder, func(c *Conn) PipelineResult {
				rs := c.DoPipeline([][]byte{tc.req})
				if len(rs) != 1 {
					t.Fatalf("DoPipeline returned %d results, want 1", len(rs))
				}
				return rs[0]
			})
			if !bytes.Equal(single.Resp, piped.Resp) || single.Closed != piped.Closed || !errors.Is(piped.Err, single.Err) {
				t.Fatalf("Do = (%q, closed=%v, err=%v), DoPipeline = (%q, closed=%v, err=%v)",
					single.Resp, single.Closed, single.Err, piped.Resp, piped.Closed, piped.Err)
			}
			if dSingle != dPiped {
				t.Fatalf("counter deltas: Do %+v, DoPipeline %+v", dSingle, dPiped)
			}
			if single.Err != nil || !bytes.HasPrefix(single.Resp, []byte(tc.wantPrefix)) || single.Closed != tc.wantClosed {
				t.Fatalf("outcome = (%q, closed=%v, err=%v), want prefix %q closed=%v",
					single.Resp, single.Closed, single.Err, tc.wantPrefix, tc.wantClosed)
			}
			if dSingle != tc.wantDelta {
				t.Fatalf("counter deltas = %+v, want %+v", dSingle, tc.wantDelta)
			}
		})
	}
}
