package httpd

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sdrad/internal/core"
	"sdrad/internal/cryptolib"
	"sdrad/internal/galloc"
	"sdrad/internal/mem"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/sched"
	"sdrad/internal/serve"
	"sdrad/internal/stack"
	"sdrad/internal/telemetry"
	"sdrad/internal/tlsf"
)

// Variant selects the build under test (Figure 5 of the paper). In
// VariantSDRaD the HTTP parser runs in an accessible persistent nested
// domain with per-request pools in a data domain.
type Variant = serve.Variant

// Build variants.
const (
	VariantVanilla = serve.VariantVanilla
	VariantTLSF    = serve.VariantTLSF
	VariantSDRaD   = serve.VariantSDRaD
)

// Domain indices used by the hardened worker.
const (
	parserUDI = core.UDI(1) // the sandboxed HTTP parser
	poolUDI   = core.UDI(8) // data domain holding request pools
)

// Config sizes the server.
type Config struct {
	// Variant selects the build (default VariantVanilla).
	Variant Variant
	// Workers is the number of worker processes (default 1).
	Workers int
	// Files maps URL paths to synthesized static-content sizes.
	Files map[string]int
	// ConnBufSize is the request-buffer size (default 8 KiB).
	ConnBufSize int
	// PoolSize is the per-request pool size (default 16 KiB).
	PoolSize uint64
	// MaxConns sizes the worker heap for concurrent connections
	// (default 128).
	MaxConns int
	// MaxBatch caps how many pipelined requests of one connection the
	// hardened worker handles inside a single guard scope (default 16);
	// longer pipelines are split client-side by Conn.DoPipeline.
	MaxBatch int
	// Sched, when non-nil, enables the adaptive batch controller
	// (internal/sched) on the hardened worker: pipelined batches are
	// chunked to the controller's live bound (grown under load, shrunk
	// while the rewind window is hot) instead of the fixed MaxBatch.
	// Nil keeps the legacy fixed-MaxBatch guard scopes, bit for bit.
	Sched *sched.Config
	// VerifyClientCerts enables X.509 client-certificate checking of the
	// X-Client-Cert request header — the paper's §V-C integration, where
	// NGINX is compiled against the isolated OpenSSL verification API.
	// In the SDRaD variant the (vulnerable) verifier runs in its own
	// nested domain; in the baselines it runs unprotected.
	VerifyClientCerts bool
	// Seed fixes process randomness.
	Seed int64
	// Telemetry optionally attaches a recorder shared by all worker
	// processes; each worker's monitor and address space feed it.
	Telemetry *telemetry.Recorder
	// Policy optionally attaches a resilience-policy engine, shared by
	// all workers of the master (a UDI names a software component — the
	// parser — so quarantining it covers every worker's instance).
	// While the parser domain is quarantined the worker answers 503
	// with a Retry-After header instead of re-creating the domain; a
	// shedding parser closes its connections.
	Policy *policy.Engine
}

func (c *Config) setDefaults() {
	if c.Variant == 0 {
		c.Variant = VariantVanilla
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Files == nil {
		c.Files = map[string]int{"/index.html": 1024}
	}
	if c.ConnBufSize == 0 {
		c.ConnBufSize = 8 * 1024
	}
	if c.PoolSize == 0 {
		c.PoolSize = 16 * 1024
	}
	if c.MaxConns == 0 {
		c.MaxConns = 128
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Server errors.
var (
	ErrWorkerDown = errors.New("httpd: worker process terminated")
	ErrConnClosed = errors.New("httpd: connection closed")
	ErrTooLarge   = errors.New("httpd: request exceeds connection buffer")
)

// Master supervises the worker processes, mirroring the NGINX master: it
// can restart a crashed worker, losing that worker's connections.
type Master struct {
	cfg      Config
	workers  []*Worker
	restarts atomic.Int64

	// route enables load-aware connection placement; rr is the legacy
	// round-robin cursor, place the scorer's tie-break cursor.
	route bool
	rr    atomic.Int64
	place atomic.Int64
}

// NewMaster builds the master and starts its workers.
func NewMaster(cfg Config) (*Master, error) {
	cfg.setDefaults()
	if cfg.Sched != nil && cfg.Variant == VariantSDRaD {
		schedCfg := *cfg.Sched
		if schedCfg.OnFloorPinned == nil && cfg.Policy != nil {
			// A controller pinned at the AIMD floor by a hot rewind window
			// is sustained pressure on the parser domain: feed it to the
			// policy engine as a backoff signal.
			eng := cfg.Policy
			schedCfg.OnFloorPinned = func(int64) { eng.OnPressure(int(parserUDI)) }
		}
		cfg.Sched = &schedCfg
	}
	m := &Master{cfg: cfg}
	if cfg.Sched != nil && cfg.Variant == VariantSDRaD {
		m.route = cfg.Sched.Route && cfg.Workers > 1
	}
	for i := 0; i < cfg.Workers; i++ {
		w, err := newWorker(cfg, i)
		if err != nil {
			return nil, err
		}
		m.workers = append(m.workers, w)
	}
	return m, nil
}

// PlaceWorker picks the worker index for a newly accepted connection.
// Without Config.Sched.Route this is the legacy round-robin cursor, bit
// for bit; with routing on, a placement scorer weighs each worker's
// queue depth, EWMA per-request service latency, and rewind-window heat,
// steering new connections away from backlogged or rewind-hot workers.
// On an idle cluster the scorer's tie-break reproduces round-robin.
func (m *Master) PlaceWorker() int {
	if !m.route {
		return int(m.rr.Add(1)-1) % len(m.workers)
	}
	loads := make([]sched.WorkerLoad, len(m.workers))
	for i, w := range m.workers {
		loads[i].Queue = len(w.ch)
		if w.ctrl != nil {
			loads[i].EWMAItemNs, loads[i].WindowRewinds = w.ctrl.Load()
		}
	}
	return sched.PlacementPick(loads, int(m.place.Add(1)-1))
}

// Worker returns worker i.
func (m *Master) Worker(i int) *Worker { return m.workers[i] }

// Workers returns the worker count.
func (m *Master) Workers() int { return len(m.workers) }

// RestartWorker replaces a dead worker process with a fresh one,
// returning the restart duration (the paper's worker-restart latency
// reference point). Existing connections to the old worker are lost.
func (m *Master) RestartWorker(i int) (time.Duration, error) {
	start := time.Now()
	old := m.workers[i]
	old.Stop()
	w, err := newWorker(m.cfg, i)
	if err != nil {
		return 0, err
	}
	m.workers[i] = w
	m.restarts.Add(1)
	return time.Since(start), nil
}

// Restarts reports how many workers were restarted.
func (m *Master) Restarts() int64 { return m.restarts.Load() }

// Stop terminates all workers.
func (m *Master) Stop() {
	for _, w := range m.workers {
		w.Stop()
	}
}

// Worker is one single-threaded worker process (NGINX workers are
// event-loop processes; the simulated thread is its event loop).
type Worker struct {
	idx int
	cfg Config
	p   *proc.Process
	lib *core.Library // hardened build only

	ch       chan *event
	alloc    connAllocator
	files    map[string]fileEntry
	rewinds  atomic.Int64
	degraded atomic.Int64 // 503s served while the parser was quarantined
	shed     atomic.Int64 // connections closed by load shedding
	handle   *proc.Handle
	// reqs is this worker's native request count; each worker mirrors
	// its own counter into the registry via CounterFunc (callbacks on
	// one name sum), so the request path never touches a counter shared
	// with another worker.
	reqs atomic.Int64

	// ctrl is the adaptive batch controller (nil without Config.Sched).
	ctrl *sched.Controller

	// Parser-domain state (owned by the worker thread).
	domainReady bool
	parseBuf    mem.Addr
	pool        *Pool

	// Reused guarded-path scratch (owned by the worker thread): a single
	// request runs as the one-request batch one/oneRes.
	states []reqState
	one    [1][]byte
	oneRes [1]serve.Result

	// Client-certificate verification state (§V-C integration).
	verifier  *cryptolib.Verifier // hardened build: isolated verifier
	certStack *stack.Stack        // baselines: unprotected verifier stack
	certBuf   mem.Addr            // baselines: certificate staging buffer
}

type fileEntry struct {
	addr mem.Addr
	size int
}

// event is one client submission to a worker: a request, a pipelined
// batch (all of it handled in one guard scope on the hardened build), or
// a control event.
type event = serve.Event[*Conn]

// reqState is the per-request scratch runHardenedBatch threads through
// the guard scope.
type reqState struct {
	done bool  // result decided before the guard ran
	perr error // protocol error from the guarded parse
	req  Request
}

// Conn is a keep-alive client connection pinned to a worker.
type Conn struct {
	id     int
	w      *Worker
	rbuf   mem.Addr
	wbuf   mem.Addr
	wcap   int
	ready  bool
	closed bool
}

var connIDs atomic.Int64

// connAllocator abstracts the per-variant malloc for worker state; a
// galloc or TLSF heap serves directly, since a worker is single-threaded.
type connAllocator interface {
	Alloc(c *mem.CPU, size uint64) (mem.Addr, error)
	Free(c *mem.CPU, ptr mem.Addr) error
}

// newWorker provisions and starts one worker process.
func newWorker(cfg Config, idx int) (*Worker, error) {
	// With the scheduler on, the event queue is buffered to MaxBatch so
	// queue depth is visible to the batch controller and the placement
	// scorer; without it the channel stays unbuffered, bit-identical to
	// the legacy rendezvous.
	chCap := 0
	if cfg.Sched != nil && cfg.Variant == VariantSDRaD {
		chCap = cfg.MaxBatch
	}
	w := &Worker{
		idx: idx,
		cfg: cfg,
		p:   proc.NewProcess(fmt.Sprintf("nginx-worker-%d-%s", idx, cfg.Variant.String()), proc.WithSeed(cfg.Seed+int64(idx))),
		ch:  make(chan *event, chCap),
	}
	if cfg.Sched != nil && cfg.Variant == VariantSDRaD {
		w.ctrl = sched.NewController(*cfg.Sched, cfg.MaxBatch)
	}
	if cfg.Variant == VariantSDRaD {
		opts := []core.SetupOption{core.WithRootHeapSize(heapBudget(cfg))}
		if cfg.Telemetry != nil {
			opts = append(opts, core.WithTelemetry(cfg.Telemetry))
		}
		if cfg.Policy != nil {
			opts = append(opts, core.WithPolicy(cfg.Policy))
		}
		lib, err := core.Setup(w.p, opts...)
		if err != nil {
			return nil, err
		}
		w.lib = lib
	} else if cfg.Telemetry != nil {
		w.p.AddressSpace().SetTelemetry(cfg.Telemetry)
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.Registry().CounterFunc("sdrad_http_requests_total",
			"HTTP requests processed across all workers.",
			func() int64 { return w.reqs.Load() })
	}
	if err := w.p.Attach("init", w.provision); err != nil {
		return nil, fmt.Errorf("httpd: provisioning worker %d: %w", idx, err)
	}
	if cfg.Telemetry != nil && w.pool != nil {
		// Request-pool contention gauges, per worker — the parser-pool
		// analog of the memcache shard occupancy instruments.
		reg := cfg.Telemetry.Registry()
		label := strconv.Itoa(idx)
		w.pool.instrument(
			reg.GaugeVec("sdrad_httpd_pool_high_water_bytes",
				"Deepest request-pool fill seen by each worker, in bytes.", "worker").With(label),
			reg.CounterVec("sdrad_httpd_pool_resets_total",
				"Request-pool resets per worker (one per parsed request).", "worker").With(label),
			reg.CounterVec("sdrad_httpd_pool_exhaustions_total",
				"Request-pool allocation failures per worker.", "worker").With(label),
		)
	}
	w.handle = w.p.Spawn("event-loop", w.run)
	return w, nil
}

// heapBudget sizes the worker heap: content plus per-connection buffers
// (a read buffer and a write buffer sized for the largest response).
func heapBudget(cfg Config) uint64 {
	var total uint64 = 4 << 20
	maxFile := 0
	for _, sz := range cfg.Files {
		total += uint64(sz) + 4096
		if sz > maxFile {
			maxFile = sz
		}
	}
	total += uint64(cfg.MaxConns) * (uint64(cfg.ConnBufSize) + uint64(maxFile) + 2048)
	return total
}

// provision maps the worker heap and synthesizes the static content.
func (w *Worker) provision(t *proc.Thread) error {
	c := t.CPU()
	switch w.cfg.Variant {
	case VariantSDRaD:
		// Request pools live in a dedicated data domain (paper §V-B);
		// allocate it before anything else so the memory below a pool is
		// domain metadata, not application data.
		if err := w.lib.InitDomain(t, poolUDI, core.AsData(), core.Accessible(),
			core.HeapSize(w.cfg.PoolSize+64*1024)); err != nil {
			return err
		}
		poolBlock, err := w.lib.Malloc(t, poolUDI, w.cfg.PoolSize)
		if err != nil {
			return err
		}
		w.pool = NewPool(poolBlock, w.cfg.PoolSize)
	case VariantTLSF:
		base, err := w.p.AddressSpace().MapAnon(int(heapBudget(w.cfg)), mem.ProtRW, 0)
		if err != nil {
			return err
		}
		h, err := tlsf.Init(c, base, heapBudget(w.cfg))
		if err != nil {
			return err
		}
		w.alloc = h
	case VariantVanilla:
		base, err := w.p.AddressSpace().MapAnon(int(heapBudget(w.cfg)), mem.ProtRW, 0)
		if err != nil {
			return err
		}
		h, err := galloc.Init(c, base, heapBudget(w.cfg))
		if err != nil {
			return err
		}
		w.alloc = h
	}
	if w.cfg.Variant != VariantSDRaD {
		// The baseline request pool comes from the worker heap, allocated
		// first so the memory below it is allocator metadata.
		poolBlock, err := w.alloc.Alloc(c, w.cfg.PoolSize)
		if err != nil {
			return err
		}
		w.pool = NewPool(poolBlock, w.cfg.PoolSize)
	}
	if w.cfg.VerifyClientCerts && w.cfg.Variant != VariantSDRaD {
		// The baseline verifier runs on an ordinary stack with its
		// staging buffer in the worker heap — no isolation.
		base, err := w.p.AddressSpace().MapAnon(64*1024, mem.ProtRW, 0)
		if err != nil {
			return err
		}
		w.certStack = stack.New(base, 64*1024, w.p.Rand64())
		buf, err := w.alloc.Alloc(c, maxCertSize)
		if err != nil {
			return err
		}
		w.certBuf = buf
	}
	// Static content, deterministic bytes, in root/key0 memory.
	w.files = make(map[string]fileEntry, len(w.cfg.Files))
	paths := make([]string, 0, len(w.cfg.Files))
	for p := range w.cfg.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		size := w.cfg.Files[path]
		addr, err := w.allocRoot(t, uint64(size)+1)
		if err != nil {
			return err
		}
		pattern := []byte(path + "#")
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = pattern[i%len(pattern)]
		}
		c.Write(addr, buf)
		w.files[path] = fileEntry{addr: addr, size: size}
	}
	return nil
}

// allocRoot allocates from root memory in the way the variant provides.
func (w *Worker) allocRoot(t *proc.Thread, size uint64) (mem.Addr, error) {
	if w.cfg.Variant == VariantSDRaD {
		return w.lib.Malloc(t, core.RootUDI, size)
	}
	return w.alloc.Alloc(t.CPU(), size)
}

// run is the worker's event loop.
func (w *Worker) run(t *proc.Thread) error {
	if w.cfg.Variant == VariantSDRaD {
		// The persistent parser domain, created once; its recovery point
		// is re-established per request by the Guard (the paper saves the
		// first parser entry point as the rewind context).
		if err := w.lib.InitDomain(t, parserUDI, core.Accessible()); err != nil {
			return err
		}
		if err := w.lib.DProtect(t, parserUDI, poolUDI, mem.ProtRW); err != nil {
			return err
		}
		if w.cfg.VerifyClientCerts {
			w.verifier = cryptolib.NewVerifier(w.lib, maxCertSize)
		}
	}
	for {
		select {
		case <-w.p.Done():
			return nil
		case ev := <-w.ch:
			switch {
			case ev.Inspect != nil:
				ev.Resp <- serve.Result{Err: ev.Inspect(t)}
			case ev.Reqs != nil:
				ev.RespN <- w.handleBatch(t, ev.Conn, ev.Reqs)
			default:
				ev.Resp <- w.handleEvent(t, ev.Conn, ev.Req)
			}
		}
	}
}

// NewConn opens a keep-alive connection to this worker.
func (w *Worker) NewConn() *Conn {
	return &Conn{id: int(connIDs.Add(1)), w: w}
}

// Do sends one HTTP request and returns the raw response.
func (c *Conn) Do(req []byte) (resp []byte, closed bool, err error) {
	r := serve.Do(c.w.ch, c.w.p.Done(), ErrWorkerDown, c, req)
	return r.Resp, r.Closed, r.Err
}

// PipelineResult is one request's outcome from DoPipeline.
type PipelineResult = serve.Result

// DoPipeline sends reqs back-to-back on the connection and returns one
// result per request, in order. The hardened worker parses up to
// Config.MaxBatch pipelined requests inside a single guard scope; longer
// pipelines are split into MaxBatch-sized chunks client-side. Requests
// behind a server-side close report Closed, as if issued after it.
func (c *Conn) DoPipeline(reqs [][]byte) []PipelineResult {
	return serve.DoPipeline(c.w.ch, c.w.p.Done(), ErrWorkerDown, c, reqs, c.w.cfg.MaxBatch)
}

// Inspect runs fn on the worker's event-loop thread between requests. The
// chaos engine uses it to run invariant audits and arm fault injectors on
// the serving thread; fn must leave the thread in the root domain.
func (w *Worker) Inspect(fn func(t *proc.Thread) error) error {
	return serve.Inspect(w.ch, w.p.Done(), ErrWorkerDown, fn)
}

// Stop terminates the worker process.
func (w *Worker) Stop() {
	w.p.Shutdown()
	w.p.Wait()
}

// Crashed reports whether the worker process died with a cause.
func (w *Worker) Crashed() (bool, error) {
	if !w.p.Killed() {
		return false, nil
	}
	return w.p.ExitError() != nil, w.p.ExitError()
}

// Rewinds reports recovered parser attacks.
func (w *Worker) Rewinds() int64 { return w.rewinds.Load() }

// SchedSnapshot returns the worker's adaptive-controller state (zero
// value when the scheduler is disabled).
func (w *Worker) SchedSnapshot() sched.Snapshot {
	if w.ctrl == nil {
		return sched.Snapshot{}
	}
	return w.ctrl.Snapshot()
}

// Degraded reports 503 responses served while the parser domain was
// quarantined.
func (w *Worker) Degraded() int64 { return w.degraded.Load() }

// Shed reports connections closed by load shedding.
func (w *Worker) Shed() int64 { return w.shed.Load() }

// MappedBytes is the worker's resident-set-size analog.
func (w *Worker) MappedBytes() int64 {
	return w.p.AddressSpace().Stats().MappedBytes.Load()
}

// Process exposes the worker's simulated process.
func (w *Worker) Process() *proc.Process { return w.p }

// Library exposes the SDRaD library (nil for baselines).
func (w *Worker) Library() *core.Library { return w.lib }

// handleEvent serves one HTTP request. The hardened build runs it as a
// one-request batch on worker scratch, so single and pipelined requests
// take the same guarded path; a single request makes no controller
// observation.
func (w *Worker) handleEvent(t *proc.Thread, conn *Conn, req []byte) serve.Result {
	if w.cfg.Variant != VariantSDRaD {
		return w.handleRequest(t, conn, req)
	}
	w.one[0] = req
	w.runHardenedBatch(t, conn, w.one[:1], w.oneRes[:1])
	return w.oneRes[0]
}

// handleBatch serves a pipelined batch of requests from one connection.
// The hardened build parses it in chunks, each inside a single guard
// scope (one context save, one recovery point) with the per-phase
// Enter/Exit transitions per request; a rewind anywhere in a chunk
// discards the chunk and closes the connection. A chunk is MaxBatch
// requests, or the adaptive controller's live bound when there is one:
// a rewind while the window is hot then discards less of the pipeline,
// and the bound regrows between chunks under sustained depth. Baselines
// have no guard cost to amortize and run the requests back to back.
func (w *Worker) handleBatch(t *proc.Thread, conn *Conn, reqs [][]byte) []serve.Result {
	results := make([]serve.Result, len(reqs))
	if w.cfg.Variant != VariantSDRaD {
		for i, req := range reqs {
			results[i] = w.handleRequest(t, conn, req)
		}
		return results
	}
	bound := w.cfg.MaxBatch
	for off := 0; off < len(reqs); {
		var t0 int64
		if w.ctrl != nil {
			bound, t0 = w.ctrl.Bound(), w.ctrl.Now()
		}
		end := min(off+bound, len(reqs))
		w.runHardenedBatch(t, conn, reqs[off:end], results[off:end])
		if w.ctrl != nil {
			w.ctrl.ObserveRound(len(w.ch)+len(reqs)-end, end-off, w.ctrl.Now()-t0)
		}
		off = end
	}
	return results
}

// handleRequest is the baselines' sequential per-request flow: the parser
// runs unprotected on the connection buffer.
func (w *Worker) handleRequest(t *proc.Thread, conn *Conn, reqBytes []byte) serve.Result {
	if conn.closed {
		return serve.Result{Closed: true, Err: ErrConnClosed}
	}
	if len(reqBytes) > w.cfg.ConnBufSize {
		return serve.Result{Err: ErrTooLarge}
	}
	w.reqs.Add(1)
	c := t.CPU()
	if !conn.ready {
		if err := w.allocConnBuffers(t, conn); err != nil {
			return serve.Result{Err: err}
		}
	}
	c.Write(conn.rbuf, reqBytes)
	var req Request
	env := &parserEnv{c: c, buf: conn.rbuf, blen: len(reqBytes), pool: w.pool}
	hdrOff, perr := parseRequestLine(env, &req)
	if perr == nil {
		perr = parseHeaders(env, &req, hdrOff)
	}
	w.pool.Reset(c)
	return w.reply(t, conn, &req, perr)
}

// reply answers one parsed request: the client-certificate check (when
// enabled), then the response.
func (w *Worker) reply(t *proc.Thread, conn *Conn, req *Request, perr error) serve.Result {
	status := ""
	if perr == nil && w.cfg.VerifyClientCerts {
		var closed bool
		status, closed = w.checkClientCert(t, conn, req)
		if closed {
			return serve.Result{Closed: true}
		}
	}
	return w.respond(t, conn, req, perr, status)
}

// maxCertSize bounds the client certificates the server accepts.
const maxCertSize = 4096

// checkClientCert verifies the X-Client-Cert header (if present) through
// the X.509 checker carrying the CVE-2022-3786 analog. In the hardened
// build a malicious certificate is absorbed by the verifier domain and
// only the offending connection closes; in the baselines the stack-canary
// failure kills the worker process.
func (w *Worker) checkClientCert(t *proc.Thread, conn *Conn, req *Request) (status string, closeConn bool) {
	if req.ClientCert == "" {
		return "", false
	}
	cert := DecodeCertHeader(req.ClientCert)
	if len(cert) > maxCertSize {
		return "HTTP/1.1 403 Forbidden\r\n", false
	}
	if w.cfg.Variant == VariantSDRaD {
		res, err := w.verifier.Verify(t, cert)
		if err != nil {
			var abn *core.AbnormalExit
			if errors.As(err, &abn) {
				// The certificate attacked the verifier; the domain is
				// discarded and re-created on the next verification.
				w.rewinds.Add(1)
				conn.closed = true
				w.freeConnBuffers(t, conn)
				return "", true
			}
			return "HTTP/1.1 403 Forbidden\r\n", false
		}
		if !res.Valid {
			return "HTTP/1.1 403 Forbidden\r\n", false
		}
		return "", false
	}
	// Baseline: the vulnerable verifier runs unprotected. A malicious
	// certificate smashes the canary and the resulting SIGABRT kills the
	// worker (the panic propagates to the process supervisor).
	c := t.CPU()
	c.Write(w.certBuf, cert)
	res, err := cryptolib.VerifyCertificate(c, w.certStack, w.certBuf, len(cert))
	if err != nil || !res.Valid {
		return "HTTP/1.1 403 Forbidden\r\n", false
	}
	return "", false
}

// EncodeCertHeader flattens a certificate blob into a header-safe value.
func EncodeCertHeader(cert []byte) string {
	return strings.ReplaceAll(string(cert), "\n", "|")
}

// DecodeCertHeader reverses EncodeCertHeader.
func DecodeCertHeader(v string) []byte {
	return []byte(strings.ReplaceAll(v, "|", "\n"))
}

// quarantineState maps a monitor-side denial back onto the policy ladder
// state that drives the degraded response.
func quarantineState(qe *core.QuarantineError) policy.State {
	if qe.State == policy.StateShedding.String() {
		return policy.StateShedding
	}
	return policy.StateQuarantined
}

// runHardenedBatch parses every request of a batch inside ONE guard
// scope in the persistent parser domain, on a copy of the request bytes
// (the paper saves the first parser entry point as the rewind context).
// The per-request phase transitions (Enter/Exit around the request line
// and the headers) still happen, but the context save and the recovery
// point are established once for the batch. An abnormal exit anywhere
// rewinds once, discards the whole in-flight batch, and closes the
// connection. A single request is a batch of one.
func (w *Worker) runHardenedBatch(t *proc.Thread, conn *Conn, reqs [][]byte, results []serve.Result) {
	lib := w.lib
	c := t.CPU()
	if cap(w.states) < len(reqs) {
		w.states = make([]reqState, len(reqs))
	}
	states := w.states[:len(reqs)]
	live := 0
	for i, req := range reqs {
		states[i] = reqState{}
		switch {
		case conn.closed:
			states[i].done = true
			results[i] = serve.Result{Closed: true, Err: ErrConnClosed}
		case len(req) > w.cfg.ConnBufSize:
			states[i].done = true
			results[i] = serve.Result{Err: ErrTooLarge}
		default:
			w.reqs.Add(1)
			live++
		}
	}
	if live == 0 {
		return
	}
	// Resilience-policy admission, one decision per guard scope and ahead
	// of any buffer allocation: a quarantined parser is not re-created,
	// and every live request gets the degraded answer.
	if dec := lib.Policy().Admit(int(parserUDI)); !dec.Allowed() {
		w.degradeBatch(t, conn, states, results, dec.State, dec.RetryAfterNs)
		return
	}
	if !conn.ready {
		if err := w.allocConnBuffers(t, conn); err != nil {
			settle(states, results, serve.Result{Err: err})
			return
		}
	}
	gerr := lib.Guard(t, parserUDI, func() error {
		if !w.domainReady {
			if err := lib.DProtect(t, parserUDI, poolUDI, mem.ProtRW); err != nil {
				return err
			}
			buf, err := lib.Malloc(t, parserUDI, uint64(w.cfg.ConnBufSize))
			if err != nil {
				return err
			}
			w.parseBuf = buf
			w.domainReady = true
		}
		for i, req := range reqs {
			st := &states[i]
			if st.done {
				continue
			}
			// Stage through the connection read buffer (a pipelined
			// connection reuses it per request) and copy into the domain,
			// so the parser never touches root memory directly.
			c.Write(conn.rbuf, req)
			lib.Copy(t, w.parseBuf, conn.rbuf, len(req))
			env := &parserEnv{c: c, buf: w.parseBuf, blen: len(req), pool: w.pool}
			// Phase 1: request line (with the vulnerable URI normalizer).
			if err := lib.Enter(t, parserUDI); err != nil {
				return err
			}
			hdrOff, perr := parseRequestLine(env, &st.req)
			if err := lib.Exit(t); err != nil {
				return err
			}
			// Phase 2: headers.
			if perr == nil {
				if err := lib.Enter(t, parserUDI); err != nil {
					return err
				}
				perr = parseHeaders(env, &st.req, hdrOff)
				if err := lib.Exit(t); err != nil {
					return err
				}
			}
			w.pool.Reset(c)
			st.perr = perr
		}
		return nil
	}, core.Accessible())
	if gerr != nil {
		var abn *core.AbnormalExit
		var qe *core.QuarantineError
		switch {
		case errors.As(gerr, &abn):
			// Rewind: the parser domain is gone (recreated lazily) and the
			// whole batch with it; close only this connection. The pool
			// data domain survives; reset it.
			w.domainReady = false
			w.pool.Reset(c)
			w.rewinds.Add(1)
			if w.ctrl != nil {
				w.ctrl.NoteRewind()
			}
			if !conn.closed {
				conn.closed = true
				w.freeConnBuffers(t, conn)
			}
			settle(states, results, serve.Result{Closed: true})
		case errors.As(gerr, &qe):
			// The shared policy engine escalated between the admission
			// pre-check and the lazy re-init inside the guard (a sibling
			// worker's rewinds): the same degraded answer, no discard.
			w.domainReady = false
			w.degradeBatch(t, conn, states, results, quarantineState(qe), qe.RetryAfterNs)
		default:
			settle(states, results, serve.Result{Err: gerr})
		}
		return
	}
	// Respond in batch order. A response that closes the connection
	// (Connection: close, or a certificate-verifier rewind) closes it for
	// the requests behind it, exactly as in the sequential flow.
	for i := range reqs {
		switch {
		case states[i].done:
		case conn.closed:
			results[i] = serve.Result{Closed: true, Err: ErrConnClosed}
		default:
			results[i] = w.reply(t, conn, &states[i].req, states[i].perr)
		}
	}
}

// settle gives every request of the batch still undecided the result r.
func settle(states []reqState, results []serve.Result, r serve.Result) {
	for i := range states {
		if !states[i].done {
			results[i] = r
		}
	}
}

// degradeBatch answers every undecided request of the batch on the
// resilience policy's degraded path; requests behind a shed (closed)
// connection report the close.
func (w *Worker) degradeBatch(t *proc.Thread, conn *Conn, states []reqState, results []serve.Result, state policy.State, retryAfterNs int64) {
	for i := range states {
		switch {
		case states[i].done:
		case conn.closed:
			results[i] = serve.Result{Closed: true, Err: ErrConnClosed}
		default:
			results[i] = w.respondDegraded(t, conn, state, retryAfterNs)
		}
	}
}

// respondDegraded is the worker's resilience-policy response: while the
// parser domain is quarantined or backing off the worker answers 503
// Service Unavailable with a Retry-After header covering the remaining
// hold-off (NGINX's standard overload answer), keeping the connection
// open; once the policy escalates to shedding the connection is closed
// outright. The response is synthesized host-side — the degraded path
// deliberately touches no simulated domain memory.
func (w *Worker) respondDegraded(t *proc.Thread, conn *Conn, state policy.State, retryAfterNs int64) serve.Result {
	if state == policy.StateShedding {
		if !conn.closed {
			conn.closed = true
			w.freeConnBuffers(t, conn)
			w.shed.Add(1)
		}
		return serve.Result{Closed: true}
	}
	w.degraded.Add(1)
	secs := (retryAfterNs + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	resp := fmt.Sprintf("HTTP/1.1 503 Service Unavailable\r\n"+
		"Server: sdrad-httpd/1.23\r\nRetry-After: %d\r\nContent-Length: 0\r\n"+
		"Connection: keep-alive\r\n\r\n", secs)
	return serve.Result{Resp: []byte(resp)}
}

// respond builds the HTTP response in the connection write buffer.
// statusOverride, when non-empty, replaces the normal status line (403
// from certificate checking).
func (w *Worker) respond(t *proc.Thread, conn *Conn, req *Request, perr error, statusOverride string) serve.Result {
	c := t.CPU()
	var status string
	var body fileEntry
	var haveBody bool
	switch {
	case statusOverride != "":
		status = statusOverride
	case perr != nil:
		status = "HTTP/1.1 400 Bad Request\r\n"
		req.KeepAlive = false
	default:
		if fe, ok := w.files[req.Path]; ok {
			status = "HTTP/1.1 200 OK\r\n"
			body = fe
			haveBody = req.Method != MethodHEAD
		} else {
			status = "HTTP/1.1 404 Not Found\r\n"
		}
	}
	conLine := "Connection: keep-alive\r\n"
	if !req.KeepAlive {
		conLine = "Connection: close\r\n"
	}
	header := fmt.Sprintf("%sServer: sdrad-httpd/1.23\r\nContent-Length: %d\r\n%s\r\n",
		status, body.size, conLine)
	if len(header)+body.size > conn.wcap {
		return serve.Result{Err: ErrTooLarge}
	}
	c.Write(conn.wbuf, []byte(header))
	wlen := len(header)
	if haveBody && body.size > 0 {
		// The file content is copied from the content store to the
		// connection buffer — the per-size cost that shapes Figure 5.
		c.Copy(conn.wbuf+mem.Addr(wlen), body.addr, body.size)
		wlen += body.size
	}
	resp := c.ReadBytes(conn.wbuf, wlen)
	if !req.KeepAlive {
		conn.closed = true
		w.freeConnBuffers(t, conn)
	}
	return serve.Result{Resp: resp, Closed: !req.KeepAlive}
}

// freeConnBuffers releases a closed connection's buffers back to the
// worker heap.
func (w *Worker) freeConnBuffers(t *proc.Thread, conn *Conn) {
	if !conn.ready {
		return
	}
	if w.cfg.Variant == VariantSDRaD {
		_ = w.lib.Free(t, core.RootUDI, conn.rbuf)
		_ = w.lib.Free(t, core.RootUDI, conn.wbuf)
	} else {
		_ = w.alloc.Free(t.CPU(), conn.rbuf)
		_ = w.alloc.Free(t.CPU(), conn.wbuf)
	}
	conn.ready = false
}

// allocConnBuffers provisions connection buffers sized for the largest
// configured response.
func (w *Worker) allocConnBuffers(t *proc.Thread, conn *Conn) error {
	maxFile := 0
	for _, fe := range w.files {
		if fe.size > maxFile {
			maxFile = fe.size
		}
	}
	conn.wcap = maxFile + 1024
	rb, err := w.allocRoot(t, uint64(w.cfg.ConnBufSize))
	if err != nil {
		return err
	}
	wb, err := w.allocRoot(t, uint64(conn.wcap))
	if err != nil {
		return err
	}
	conn.rbuf, conn.wbuf = rb, wb
	conn.ready = true
	return nil
}

// FormatRequest builds a simple HTTP/1.1 GET request.
func FormatRequest(path string, keepAlive bool) []byte {
	conn := "keep-alive"
	if !keepAlive {
		conn = "close"
	}
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: bench\r\nConnection: %s\r\n\r\n", path, conn))
}
