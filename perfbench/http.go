package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"sdrad/internal/httpd"
	"sdrad/internal/telemetry"
)

// The two static files and the share of requests for the large one.
var (
	httpPaths  = [2]string{"/1k.html", "/64k.html"}
	httpSizes  = [2]int{1 << 10, 64 << 10}
	httpReqs   = [2][]byte{httpd.FormatRequest(httpPaths[0], true), httpd.FormatRequest(httpPaths[1], true)}
	httpLarge  = 0.10
	httpOKLine = []byte("HTTP/1.1 200 ")
	// httpTrap is the CVE-2009-2629 analog: a complex URI whose ".."
	// segments walk the normalizer below its buffer.
	httpTrap = httpd.FormatRequest("/"+strings.Repeat("../", 200), true)
)

// httpInputs is each client's pre-generated file choice per call
// (index into httpPaths).
type httpInputs struct {
	stream [clients][]uint8
}

func httpWorkload(seed int64, sc scale) (buildFunc, error) {
	in := &httpInputs{}
	rng := rand.New(rand.NewSource(seed))
	for ci := range in.stream {
		s := make([]uint8, sc.streamLen)
		for i := range s {
			if rng.Float64() < httpLarge {
				s[i] = 1
			}
		}
		in.stream[ci] = s
	}
	return func(tel *telemetry.Recorder) (target, error) { return newHTTPTarget(in, tel) }, nil
}

// httpTarget is an httpd SDRaD build serving the two static files, with
// one keep-alive connection per client.
type httpTarget struct {
	in    *httpInputs
	m     *httpd.Master
	conns [clients]*httpd.Conn
	home  [clients]int // each client's worker, placed by the master once
	next  int          // worker of the next trap
}

func newHTTPTarget(in *httpInputs, tel *telemetry.Recorder) (*httpTarget, error) {
	files := map[string]int{}
	for i, p := range httpPaths {
		files[p] = httpSizes[i]
	}
	m, err := httpd.NewMaster(httpd.Config{
		Variant:   httpd.VariantSDRaD,
		Workers:   serverWorkers,
		Files:     files,
		Telemetry: tel,
	})
	if err != nil {
		return nil, fmt.Errorf("httpd master: %w", err)
	}
	t := &httpTarget{in: in, m: m}
	for ci := range t.conns {
		t.home[ci] = m.PlaceWorker()
		t.conns[ci] = m.Worker(t.home[ci]).NewConn()
	}
	return t, nil
}

func (t *httpTarget) call(ci, n int, cr *clientRun) error {
	req := uint64(ci)<<40 | uint64(n)
	var opStart time.Time
	if cr.tr != nil {
		opStart = time.Now()
	}
	file := t.in.stream[ci][n%len(t.in.stream[ci])]
	cr.attempted++
	t0 := time.Now()
	var resp []byte
	for attempt := 0; attempt < maxAttempts; attempt++ {
		r, closed, err := t.conns[ci].Do(httpReqs[file])
		if attempt == 0 && (closed || err != nil) {
			cr.firstFail++
		}
		if closed {
			// Discarded with its connection: reconnect to the same
			// worker, so the load stays one client per worker, and resend.
			cr.discarded++
			t.conns[ci] = t.m.Worker(t.home[ci]).NewConn()
			continue
		}
		if err == nil {
			resp = r
		}
		break
	}
	t1 := time.Now()
	if resp == nil {
		cr.failed++
	} else {
		if err := checkHTTP(resp, httpSizes[file]); err != nil {
			return fmt.Errorf("client %d call %d: GET %s: %w", ci, n, httpPaths[file], err)
		}
		cr.done++
	}
	cr.endCall(req, opStart, t0, t1, int(file), spHTTPDo)
	return nil
}

// checkHTTP verifies a reply is a 200 whose body has exactly size bytes,
// as its Content-Length header also says.
func checkHTTP(resp []byte, size int) error {
	hdr, body, ok := bytes.Cut(resp, []byte("\r\n\r\n"))
	if !ok || !bytes.HasPrefix(hdr, httpOKLine) {
		return fmt.Errorf("reply %.60q is not a 200", resp)
	}
	cl := []byte("\r\nContent-Length: " + strconv.Itoa(size))
	if i := bytes.Index(hdr, cl); i < 0 || (i+len(cl) < len(hdr) && hdr[i+len(cl)] != '\r') {
		return fmt.Errorf("reply header %q lacks Content-Length %d", hdr, size)
	}
	if len(body) != size {
		return fmt.Errorf("body of %d bytes, want %d", len(body), size)
	}
	return nil
}

// trap sends one parser trap on a fresh connection, alternating
// workers, and returns its round trip. Only one goroutine sends traps,
// and innocent requests never fault, so the trap must add exactly one
// rewind to its worker.
func (t *httpTarget) trap() (int64, error) {
	w := t.m.Worker(t.next)
	t.next = (t.next + 1) % t.m.Workers()
	before := w.Rewinds()
	conn := w.NewConn()
	t0 := time.Now()
	resp, closed, err := conn.Do(httpTrap)
	d := int64(time.Since(t0))
	if err != nil || !closed {
		return 0, fmt.Errorf("httpd trap: reply %.60q closed=%v err=%v, want a closed connection", resp, closed, err)
	}
	if got := w.Rewinds() - before; got != 1 {
		return 0, fmt.Errorf("httpd trap: %d rewinds, want 1", got)
	}
	return d, nil
}

func (t *httpTarget) counters() counters {
	var c counters
	for i := range t.m.Workers() {
		w := t.m.Worker(i)
		c.addLibrary(w.Library())
		c.addMemory(w.Process())
		c.rewinds += w.Rewinds()
	}
	return c
}

func (t *httpTarget) mappedBytes() int64 {
	var n int64
	for i := range t.m.Workers() {
		n += t.m.Worker(i).MappedBytes()
	}
	return n
}

func (t *httpTarget) timeLayers(*tracer) (map[string]float64, error) { return nil, nil }

func (t *httpTarget) stop() error {
	var crashed []string
	for i := range t.m.Workers() {
		if dead, cause := t.m.Worker(i).Crashed(); dead {
			crashed = append(crashed, fmt.Sprintf("worker %d: %v", i, cause))
		}
	}
	t.m.Stop()
	if len(crashed) > 0 {
		return fmt.Errorf("httpd crashed: %s", strings.Join(crashed, "; "))
	}
	return nil
}
