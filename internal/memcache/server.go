package memcache

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"bytes"

	"time"

	"sdrad/internal/core"
	"sdrad/internal/galloc"
	"sdrad/internal/mem"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/sched"
	"sdrad/internal/serve"
	"sdrad/internal/telemetry"
	"sdrad/internal/tlsf"
)

// Variant selects the build under test (Figure 4 of the paper). In
// VariantSDRaD every event runs in a per-worker isolated domain on deep
// copies of the connection buffers, with store updates deferred.
type Variant = serve.Variant

// Build variants.
const (
	VariantVanilla = serve.VariantVanilla
	VariantTLSF    = serve.VariantTLSF
	VariantSDRaD   = serve.VariantSDRaD
)

// Domain indices used by the hardened build.
const (
	// storageUDI is the shared data domain holding the hash table and
	// slab memory, accessible by every worker's event domain.
	storageUDI = core.UDI(9)
	// eventUDI is each worker's nested event-handling domain (execution
	// domains are per thread, so every worker uses the same index).
	eventUDI = core.UDI(1)
)

// Config sizes the server.
type Config struct {
	// Variant selects the build (default VariantVanilla).
	Variant Variant
	// Workers is the number of worker threads (default 1).
	Workers int
	// HashPower sets the bucket count to 1<<HashPower (default 14).
	HashPower int
	// CacheBytes is the cache memory limit (default 32 MiB).
	CacheBytes uint64
	// ConnBufSize is the per-connection read/write buffer size
	// (default 16 KiB).
	ConnBufSize int
	// Shards is the number of lock-striped storage shards (rounded up
	// to a power of two, default 8, max MaxShards). 1 restores the old
	// single-mutex cache.
	Shards int
	// MaxBatch is the maximum number of pipelined client events one
	// guard scope handles — one domain switch, one scratch arena, one
	// deferred-op apply for the whole batch (default 16; 1 disables
	// batching).
	MaxBatch int
	// Sched, when non-nil, enables the self-tuning batch/shard scheduler
	// (internal/sched): per-worker adaptive drain bounds, shard-affinity
	// event routing and batch splitting, and the storage slot remap the
	// contention-driven rebalancer moves hot buckets through. Nil keeps
	// the legacy fixed-MaxBatch drain, bit for bit.
	Sched *sched.Config
	// DomainHeapSize is the hardened build's per-event-domain heap. The
	// default follows the sizing formula at domainScratchSlack.
	DomainHeapSize uint64
	// Seed fixes process randomness.
	Seed int64
	// Telemetry optionally attaches a recorder: the hardened build wires
	// it through the reference monitor, the vanilla build through the
	// address space only (fault events and MMU counters).
	Telemetry *telemetry.Recorder
	// Policy optionally attaches a resilience-policy engine to the
	// hardened build (ignored by baselines). When the event domain is
	// quarantined the server serves gets as misses and refuses mutations
	// with SERVER_ERROR instead of re-creating the domain; a shedding
	// domain's connections are closed outright.
	Policy *policy.Engine
}

func (c *Config) setDefaults() {
	if c.Variant == 0 {
		c.Variant = VariantVanilla
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.HashPower == 0 {
		c.HashPower = 14
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 32 << 20
	}
	if c.ConnBufSize == 0 {
		c.ConnBufSize = 16 * 1024
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Shards > MaxShards {
		c.Shards = MaxShards
	}
	for c.Shards&(c.Shards-1) != 0 {
		c.Shards++
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.DomainHeapSize == 0 {
		c.DomainHeapSize = uint64(c.batchCeiling())*2*uint64(c.ConnBufSize) + domainScratchSlack
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// domainScratchSlack is the per-guard-scope scratch headroom beyond the
// connection-buffer copies: request-scoped item staging plus reply
// assembly for a full batch.
const domainScratchSlack = 160 * 1024

// batchCeiling is the largest batch one guard scope can be asked to
// hold: the fixed MaxBatch, or the adaptive controller's ceiling when
// the scheduler is configured with a higher one. The default
// DomainHeapSize tracks it:
//
//	DomainHeapSize = batchCeiling * 2 * ConnBufSize + domainScratchSlack
//
// (one read + one write buffer copy per in-flight event; 192 KiB at a
// ceiling of 1 with 16 KiB buffers, matching the pre-batching default).
func (c *Config) batchCeiling() int {
	b := c.MaxBatch
	if c.Sched != nil && c.Sched.MaxBatch > b {
		b = c.Sched.MaxBatch
	}
	return b
}

// Server errors.
var (
	ErrServerDown      = errors.New("memcache: server terminated")
	ErrConnClosed      = errors.New("memcache: connection closed")
	ErrRequestTooLarge = errors.New("memcache: request exceeds connection buffer")
)

// Server is one simulated Memcached process.
type Server struct {
	cfg Config
	p   *proc.Process
	lib *core.Library // nil for baseline variants
	st  *Storage

	connAllocator connAlloc // baseline variants' malloc for conn buffers
	workers       []*worker
	telBatch      *telemetry.Histogram // events per guard scope, nil without telemetry
	telSplits     *telemetry.Counter   // shard-affinity batch splits, nil without telemetry
	router        *sched.Router        // shard→worker affinity bias, nil without Sched
	rebalancer    *sched.Rebalancer    // hot-slot move planner, nil without Sched
	route         bool                 // load-aware connection placement (Sched.Route)
	steal         bool                 // cross-worker stealing (Sched.Steal, Workers > 1)
	rr            atomic.Int64
	place         atomic.Int64 // placement tie-break cursor (route mode)
	steals        atomic.Int64 // cross-worker steal rounds
	stolenEvents  atomic.Int64 // events taken by stealing
	stealSegments atomic.Int64 // guard scopes run for stolen shard segments
	connIDs       atomic.Int64
	rewinds       atomic.Int64
	closedByAtk   atomic.Int64
	degraded      atomic.Int64 // requests answered on the quarantine path
	shed          atomic.Int64 // connections closed by load shedding
}

type worker struct {
	idx int
	s   *Server
	ch  chan *event
	// stealch is the steal-eligible queue, created only in steal mode:
	// single keyed requests land here (pipelined, keyless, and control
	// events stay on ch, whose events are never stolen). Exposing the
	// eligible backlog on its own channel is what lets an idle sibling
	// take a segment without perturbing event kinds it cannot safely run.
	stealch chan *event
	handle  *proc.Handle

	// ctrl is the worker's adaptive batch-bound controller (nil without
	// Config.Sched — the drain loop then uses the fixed MaxBatch bound).
	// boundGauge, when set, mirrors the bound into telemetry.
	ctrl       *sched.Controller
	boundGauge *telemetry.Gauge
	// evShards is per-round scratch: the shard classification of each
	// drained batch item (owned by the worker goroutine).
	evShards []int

	// reqs is the worker's native request count. Keeping it per worker
	// (its own cache line, uncontended) and summing at exposition via a
	// CounterFunc is what keeps the enabled-telemetry request path free
	// of shared-counter ping-pong.
	reqs atomic.Int64

	// Hardened-build per-worker domain state (owned by the worker
	// goroutine). slots are per-batch-position connection-buffer copies
	// inside the event domain; a rewind invalidates them along with the
	// domain.
	domainReady bool
	slots       []connSlot

	// Reused per-batch scratch (owned by the worker goroutine).
	items   []batchItem
	states  []evState
	results []serve.Result
	one     [1]batchItem
	oneRes  [1]serve.Result
	dops    deferredOps
	// rw is the worker's reusable reply assembler; drive_machine builds
	// every response of a batch through it, so the steady state allocates
	// nothing per request.
	rw replyState

	// env is the worker's reusable drive_machine environment and
	// scratchAddrs its request-scoped scratch allocation list; curT pins
	// the thread the worker is currently serving on. allocBase and
	// allocDomain are the two scratch allocators, created once per worker
	// so the per-request path allocates neither environment nor closure.
	env          dmEnv
	scratchAddrs []mem.Addr
	curT         *proc.Thread
	allocBase    func(size uint64) (mem.Addr, error)
	allocDomain  func(size uint64) (mem.Addr, error)
}

// initAllocators lazily creates the worker's persistent scratch-allocator
// closures (they capture only the worker, reading the current thread and
// CPU from its per-call fields).
func (w *worker) initAllocators(s *Server) {
	if w.allocBase != nil {
		return
	}
	w.allocBase = func(size uint64) (mem.Addr, error) {
		p, err := s.connAllocator.Alloc(w.env.c, size)
		if err == nil {
			w.scratchAddrs = append(w.scratchAddrs, p)
		}
		return p, err
	}
	w.allocDomain = func(size uint64) (mem.Addr, error) {
		p, err := s.lib.Malloc(w.curT, eventUDI, size)
		if err == nil {
			w.scratchAddrs = append(w.scratchAddrs, p)
		}
		return p, err
	}
}

// connSlot is one pair of connection-buffer deep copies in the event
// domain; batch position i uses slot i. The span leases are minted once
// when the slot is allocated and renewed in O(1) across the batch's
// Enter/Exit transitions; a rewind discards the slot and its leases
// together.
type connSlot struct {
	rbuf mem.Addr
	wbuf mem.Addr
	rl   mem.Lease
	wl   mem.Lease
}

// batchItem is one request of one event, flattened into the worker's
// current batch (a pipelined event contributes one item per request).
type batchItem struct {
	ev  *event
	req []byte
}

// evState is the per-item outcome scratch runHardenedBatch threads
// through the guard scope.
type evState struct {
	done    bool // result decided before the guard ran (preflight failure)
	slot    int
	wlen    int
	closeit bool
	derr    error
	data    []byte
}

// event is one client submission to a worker: a request, a pipelined
// run (every request of one event is handled in the same guard scope),
// or a control event.
type event = serve.Event[*Conn]

// nreq is the number of requests the event contributes to a batch.
func nreq(ev *event) int {
	if ev.Reqs != nil {
		return len(ev.Reqs)
	}
	return 1
}

// Conn is a client connection. All its simulated-memory state is owned by
// the worker it is pinned to.
type Conn struct {
	id     int
	w      *worker
	rbuf   mem.Addr
	wbuf   mem.Addr
	ready  bool
	closed bool
}

// ID returns the connection id.
func (c *Conn) ID() int { return c.id }

// NewServer builds and starts a server: storage is provisioned, workers
// are spawned, and the server is ready for NewConn/Do.
func NewServer(cfg Config) (*Server, error) {
	cfg.setDefaults()
	s := &Server{
		cfg: cfg,
		p:   proc.NewProcess("memcached-"+cfg.Variant.String(), proc.WithSeed(cfg.Seed)),
	}
	if cfg.Variant == VariantSDRaD {
		rootHeap := uint64(cfg.ConnBufSize)*2*256 + 2<<20 // 256 live conns + slack
		opts := []core.SetupOption{
			core.WithRootHeapSize(rootHeap),
			core.WithDefaultHeapSize(cfg.DomainHeapSize),
		}
		if cfg.Telemetry != nil {
			opts = append(opts, core.WithTelemetry(cfg.Telemetry))
		}
		if cfg.Policy != nil {
			opts = append(opts, core.WithPolicy(cfg.Policy))
		}
		lib, err := core.Setup(s.p, opts...)
		if err != nil {
			return nil, err
		}
		s.lib = lib
	} else if cfg.Telemetry != nil {
		s.p.AddressSpace().SetTelemetry(cfg.Telemetry)
	}
	if err := s.p.Attach("init", s.provision); err != nil {
		return nil, fmt.Errorf("memcache: provisioning: %w", err)
	}
	var schedCfg sched.Config
	if cfg.Sched != nil {
		// The scheduler needs the slot indirection layer live before any
		// worker serves (the rebalancer moves hot slots through it; the
		// initial identity table changes nothing).
		s.st.EnableRemap()
		if cfg.Workers > 1 {
			// Shard-affinity routing only means something with several
			// workers; a single-worker server skips the per-request key
			// parse on the client path.
			s.router = sched.NewRouter(cfg.Workers, s.st.Shards())
		}
		s.rebalancer = sched.NewRebalancer(sched.RebalanceConfig{})
		schedCfg = *cfg.Sched
		if schedCfg.GuardCostNs == nil && cfg.Telemetry != nil {
			// Estimate the Enter+Exit domain-switch cost from the live
			// latency histograms core already feeds — the controller grows
			// faster while amortization dominates per-item cost.
			reg := cfg.Telemetry.Registry()
			enter := reg.Histogram("sdrad_enter_latency_ns",
				"Latency of sdrad_enter calls in nanoseconds.")
			exit := reg.Histogram("sdrad_exit_latency_ns",
				"Latency of sdrad_exit calls in nanoseconds.")
			schedCfg.GuardCostNs = func() int64 {
				return enter.Quantile(0.5) + exit.Quantile(0.5)
			}
		}
		if schedCfg.OnFloorPinned == nil && cfg.Policy != nil {
			// A controller pinned at the floor by a hot rewind window for a
			// whole window means batching already shrank the blast radius
			// to single requests and the event domain is STILL rewinding:
			// surface it to the policy engine as a backoff signal.
			eng := cfg.Policy
			schedCfg.OnFloorPinned = func(int64) { eng.OnPressure(int(eventUDI)) }
		}
		s.route = schedCfg.Route && cfg.Workers > 1
		s.steal = schedCfg.Steal && cfg.Workers > 1
	}
	for i := 0; i < cfg.Workers; i++ {
		// The channel is buffered so a pipelining client can enqueue a
		// full batch before the worker drains it.
		w := &worker{idx: i, s: s, ch: make(chan *event, cfg.MaxBatch)}
		if s.steal {
			// The eligible queue is deeper than one batch so a backlogged
			// victim shows siblings something worth taking.
			w.stealch = make(chan *event, 4*cfg.MaxBatch)
		}
		if cfg.Sched != nil {
			w.ctrl = sched.NewController(schedCfg, cfg.MaxBatch)
		}
		s.workers = append(s.workers, w)
	}
	if cfg.Telemetry != nil {
		reg := cfg.Telemetry.Registry()
		workers := s.workers
		reg.CounterFunc("sdrad_memcache_requests_total",
			"Memcached protocol commands processed.",
			func() int64 {
				var n int64
				for _, w := range workers {
					n += w.reqs.Load()
				}
				return n
			})
		s.telBatch = reg.Histogram("sdrad_memcache_batch_size",
			"Client events handled per guard scope by the batched event loop.")
		occ := reg.GaugeVec("sdrad_memcache_shard_items",
			"Live items per storage shard.", "shard")
		for i := 0; i < s.st.Shards(); i++ {
			s.st.setOccupancyGauge(i, occ.With(strconv.Itoa(i)))
		}
		if cfg.Sched != nil {
			bound := reg.GaugeVec("sdrad_sched_batch_bound",
				"Adaptive drain-batch bound per worker.", "worker")
			for _, w := range s.workers {
				w.boundGauge = bound.With(strconv.Itoa(w.idx))
				w.boundGauge.Set(int64(w.ctrl.Bound()))
			}
			s.telSplits = reg.Counter("sdrad_sched_batch_splits_total",
				"Mixed batches split into per-shard guard scopes.")
			reg.CounterFunc("sdrad_sched_steals_total",
				"Cross-worker steal rounds executed by idle floor workers.", s.steals.Load)
			reg.CounterFunc("sdrad_sched_stolen_events_total",
				"Pending events taken by cross-worker stealing.", s.stolenEvents.Load)
			reg.CounterFunc("sdrad_sched_steal_segments_total",
				"Guard scopes run for stolen shard-affinity segments.", s.stealSegments.Load)
			wait := reg.CounterVec("sdrad_memcache_shard_lock_wait_ns",
				"Nanoseconds spent waiting on contended shard-lock acquisitions.", "shard")
			ops := reg.CounterVec("sdrad_memcache_shard_batch_ops",
				"Deferred ops applied through the batch paths per shard.", "shard")
			for i := 0; i < s.st.Shards(); i++ {
				s.st.setContentionCounters(i, wait.With(strconv.Itoa(i)), ops.With(strconv.Itoa(i)))
			}
		}
	}
	// Spawn only once every worker, and everything a worker reads, is in
	// place: a stealing worker scans s.workers from its own goroutine.
	for i, w := range s.workers {
		w.handle = s.p.Spawn(fmt.Sprintf("worker-%d", i), w.run)
	}
	return s, nil
}

// provision sets up storage (and, for the hardened build, the shared
// storage data domain) on the init thread.
func (s *Server) provision(t *proc.Thread) error {
	as := s.p.AddressSpace()
	c := t.CPU()
	switch s.cfg.Variant {
	case VariantSDRaD:
		// The hash table and database live in a dedicated data domain,
		// accessible by the nested event domain of each thread (§V-A).
		heapSz := s.cfg.CacheBytes + 1<<20 // TLSF control + slack
		if err := s.lib.InitDomain(t, storageUDI, core.AsData(), core.Accessible(), core.HeapSize(heapSz)); err != nil {
			return err
		}
		block, err := s.lib.Malloc(t, storageUDI, s.cfg.CacheBytes)
		if err != nil {
			return err
		}
		arena := newBumpArena(block, s.cfg.CacheBytes)
		st, err := NewStorage(c, s.cfg.HashPower, s.cfg.Shards, arena.alloc)
		if err != nil {
			return err
		}
		st.SetArenaBounds(block, s.cfg.CacheBytes)
		s.st = st
	case VariantTLSF:
		base, err := as.MapAnon(int(s.cfg.CacheBytes+baselineSlack(s.cfg)), mem.ProtRW, 0)
		if err != nil {
			return err
		}
		h, err := tlsf.Init(c, base, s.cfg.CacheBytes+baselineSlack(s.cfg))
		if err != nil {
			return err
		}
		s.connAllocator = &lockedAlloc{a: h}
		return s.provisionBaselineStorage(c)
	case VariantVanilla:
		base, err := as.MapAnon(int(s.cfg.CacheBytes+baselineSlack(s.cfg)), mem.ProtRW, 0)
		if err != nil {
			return err
		}
		h, err := galloc.Init(c, base, s.cfg.CacheBytes+baselineSlack(s.cfg))
		if err != nil {
			return err
		}
		s.connAllocator = &lockedAlloc{a: h}
		return s.provisionBaselineStorage(c)
	default:
		return fmt.Errorf("memcache: unknown variant %d", s.cfg.Variant)
	}
	return nil
}

// baselineSlack is the baseline heap headroom beyond the cache limit:
// connection buffers plus allocator slack.
func baselineSlack(cfg Config) uint64 {
	return uint64(cfg.ConnBufSize)*2*256 + 2<<20
}

// provisionBaselineStorage carves the storage arena out of the variant's
// allocator (Memcached's slab pages come from malloc).
func (s *Server) provisionBaselineStorage(c *mem.CPU) error {
	block, err := s.connAllocator.Alloc(c, s.cfg.CacheBytes)
	if err != nil {
		return err
	}
	arena := newBumpArena(block, s.cfg.CacheBytes)
	st, err := NewStorage(c, s.cfg.HashPower, s.cfg.Shards, arena.alloc)
	if err != nil {
		return err
	}
	st.SetArenaBounds(block, s.cfg.CacheBytes)
	s.st = st
	return nil
}

// run is a worker thread's body: the event loop.
func (w *worker) run(t *proc.Thread) error {
	s := w.s
	if err := s.initEventDomain(t); err != nil {
		return err
	}
	maxBatch := s.cfg.MaxBatch
	// pending holds an event drained from the channel that could not
	// join the current batch (inspect event, or the batch was full); it
	// leads the next round so event order is preserved.
	var pending *event
	for {
		var ev *event
		if pending != nil {
			ev, pending = pending, nil
		} else if w.stealch == nil {
			select {
			case <-s.p.Done():
				return nil
			case ev = <-w.ch:
			}
		} else {
			// Steal mode: prefer own work (either queue); only when both
			// are empty does the worker consider taking a sibling's
			// backlog, and only from the AIMD floor — a worker with any
			// batching headroom of its own is not idle capacity.
			select {
			case ev = <-w.ch:
			case ev = <-w.stealch:
			default:
			}
			if ev == nil {
				if w.ctrl.AtFloor() && s.trySteal(t, w) {
					continue
				}
				timer := time.NewTimer(w.ctrl.StealInterval())
				select {
				case <-s.p.Done():
					timer.Stop()
					return nil
				case ev = <-w.ch:
					timer.Stop()
				case ev = <-w.stealch:
					timer.Stop()
				case <-timer.C:
					// A traffic-free interval: walk the bound toward the
					// floor so even a never-loaded worker becomes a steal
					// candidate, then rescan.
					w.ctrl.ObserveIdle()
					continue
				}
			}
		}
		if ev.Inspect != nil {
			ev.Resp <- serve.Result{Err: ev.Inspect(t)}
			continue
		}
		// Drain up to the current bound of pending requests into one
		// batch: the fixed MaxBatch without a controller (the legacy
		// path, unchanged), the adaptive bound with one. Inspect events
		// and overflowing events park in pending and wait for the next
		// round.
		bound := maxBatch
		if w.ctrl != nil {
			bound = w.ctrl.Bound()
		}
		w.items = appendItems(w.items[:0], ev)
	drain:
		for len(w.items) < bound {
			// A nil stealch case can never fire, so the legacy single-queue
			// drain is preserved bit for bit outside steal mode.
			select {
			case ev2 := <-w.ch:
				if ev2.Inspect != nil || len(w.items)+nreq(ev2) > bound {
					pending = ev2
					break drain
				}
				w.items = appendItems(w.items, ev2)
			case ev2 := <-w.stealch:
				if len(w.items)+nreq(ev2) > bound {
					pending = ev2
					break drain
				}
				w.items = appendItems(w.items, ev2)
			default:
				break drain
			}
		}
		if w.ctrl == nil {
			deliver(w.items, s.dispatchBatch(t, w, w.items))
			continue
		}
		drained := len(w.items)
		if pending == nil && drained == 1 && w.queued() == 0 && w.ctrl.AtFloor() {
			// Idle floor fast path: a lone event with nothing queued behind
			// it cannot move a controller already at bound 1 with a cold
			// rewind window, so the round skips the clock reads and the
			// observation — at low load the scheduler costs one atomic load
			// per event.
			s.dispatchSched(t, w)
			continue
		}
		t0 := w.ctrl.Now()
		s.dispatchSched(t, w)
		backlog := w.queued()
		if pending != nil {
			backlog++
		}
		w.ctrl.ObserveRound(backlog, drained, w.ctrl.Now()-t0)
		if w.boundGauge != nil {
			w.boundGauge.Set(int64(w.ctrl.Bound()))
		}
	}
}

// initEventDomain creates the serving thread's event domain in the
// hardened build and grants it access to the shared database (deep
// copies of the connection buffer are made per event; the database
// itself is shared, as in the paper).
func (s *Server) initEventDomain(t *proc.Thread) error {
	if s.cfg.Variant != VariantSDRaD {
		return nil
	}
	if err := s.lib.InitDomain(t, eventUDI, core.Accessible(), core.HeapSize(s.cfg.DomainHeapSize)); err != nil {
		return err
	}
	return s.lib.DProtect(t, eventUDI, storageUDI, mem.ProtRW)
}

// dispatchSched is the scheduler's batch dispatch: the drained batch is
// split into contiguous per-shard segments — at event boundaries only,
// so one pipelined event's run is never separated — and each segment
// runs in its own guard scope against a single lock stripe. Segments
// shorter than sched.MinSplitRun are not worth their own
// Guard/Enter/Exit round and stay merged with their neighbor; keyless
// requests join either neighbor.
func (s *Server) dispatchSched(t *proc.Thread, w *worker) {
	items := w.items
	if len(items) < 2*sched.MinSplitRun {
		deliver(items, s.dispatchBatch(t, w, items))
		return
	}
	shards := s.classifyShards(w)
	start := 0
	for i := 1; i < len(items); i++ {
		if shards[i] == shards[i-1] || shards[i] < 0 || shards[i-1] < 0 ||
			items[i].ev == items[i-1].ev ||
			i-start < sched.MinSplitRun || len(items)-i < sched.MinSplitRun {
			continue
		}
		seg := items[start:i]
		deliver(seg, s.dispatchBatch(t, w, seg))
		if s.telSplits != nil {
			s.telSplits.Inc()
		}
		start = i
	}
	seg := items[start:]
	deliver(seg, s.dispatchBatch(t, w, seg))
}

// queued is the worker's undrained event count across both queues.
func (w *worker) queued() int {
	n := len(w.ch)
	if w.stealch != nil {
		n += len(w.stealch)
	}
	return n
}

// trySteal is the cross-worker stealing round: the caller is at the
// AIMD floor with empty queues, so it takes up to half of the most
// backlogged sibling's steal-eligible events (capped at one batch
// ceiling) and runs them in its own guard scopes via dispatchStolen.
// The thief's own controller observes the round, so a fault in stolen
// work heats the thief's rewind window, drops it off the floor, and
// stops it stealing until the window drains — the blast-radius
// convergence the AIMD ladder gives normal traffic applies to stolen
// traffic unchanged. Returns false when no sibling had at least two
// pending events (one pending event is latency, not backlog).
func (s *Server) trySteal(t *proc.Thread, w *worker) bool {
	victim, best := -1, 1
	for _, v := range s.workers {
		if v == w || v.stealch == nil {
			continue
		}
		if n := len(v.stealch); n > best {
			victim, best = v.idx, n
		}
	}
	if victim < 0 {
		return false
	}
	take := best / 2
	if max := w.ctrl.MaxBatch(); take > max {
		take = max
	}
	if take < 1 {
		take = 1
	}
	v := s.workers[victim]
	w.items = w.items[:0]
steal:
	for len(w.items) < take {
		select {
		case ev := <-v.stealch:
			w.items = appendItems(w.items, ev)
		default:
			break steal // raced with the victim's own drain
		}
	}
	if len(w.items) == 0 {
		return false
	}
	s.steals.Add(1)
	s.stolenEvents.Add(int64(len(w.items)))
	t0 := w.ctrl.Now()
	s.dispatchStolen(t, w)
	w.ctrl.ObserveRound(w.queued(), len(w.items), w.ctrl.Now()-t0)
	if w.boundGauge != nil {
		w.boundGauge.Set(int64(w.ctrl.Bound()))
	}
	return true
}

// dispatchStolen runs a stolen segment. Items are grouped by storage
// shard and every group runs as its OWN guard scope: the router's
// epoch-handoff rules promise that one scope never sees a split key
// view, and a fault on the thief discards exactly the stolen group it
// hit — one rewind, one forensics report, and the victim's remaining
// backlog commits untouched. Only single-request keyed events are
// steal-eligible (the submit path enforces it), so reordering across
// groups cannot reorder any one connection's requests: Do is
// synchronous, one event per connection in flight.
func (s *Server) dispatchStolen(t *proc.Thread, w *worker) {
	items := w.items
	shards := s.classifyShards(w)
	// Stable insertion sort by shard — stolen segments are at most one
	// batch ceiling long, so O(n²) beats allocating a sorter.
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && shards[j-1] > shards[j]; j-- {
			shards[j-1], shards[j] = shards[j], shards[j-1]
			items[j-1], items[j] = items[j], items[j-1]
		}
	}
	start := 0
	for i := 1; i <= len(items); i++ {
		if i < len(items) && shards[i] == shards[start] {
			continue
		}
		seg := items[start:i]
		deliver(seg, s.dispatchBatch(t, w, seg))
		s.stealSegments.Add(1)
		start = i
	}
}

// classifyShards maps each item of the worker's current batch to its
// key's storage shard, -1 for keyless requests, in the worker's reused
// scratch. One event's items share the event's classification.
func (s *Server) classifyShards(w *worker) []int {
	items := w.items
	if cap(w.evShards) < len(items) {
		w.evShards = make([]int, len(items))
	}
	shards := w.evShards[:len(items)]
	for i := range items {
		if i > 0 && items[i].ev == items[i-1].ev {
			shards[i] = shards[i-1]
			continue
		}
		shards[i] = -1
		if key := requestKeyBytes(items[i].req); key != nil {
			shards[i] = s.st.ShardFor(key)
		}
	}
	return shards
}

// requestKeyBytes extracts the (first) key token of a text-protocol
// request for shard classification, allocation-free; nil for keyless
// commands and binary frames.
func requestKeyBytes(req []byte) []byte {
	if len(req) == 0 || req[0] == BinMagicRequest {
		return nil
	}
	eol := bytes.IndexByte(req, '\r')
	if eol < 0 {
		eol = len(req)
	}
	line := req[:eol]
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return nil
	}
	switch string(line[:sp]) {
	case "get", "gets", "set", "add", "replace", "append", "prepend",
		"cas", "delete", "touch", "incr", "decr", "bset":
	default:
		return nil
	}
	rest := line[sp+1:]
	if end := bytes.IndexByte(rest, ' '); end >= 0 {
		rest = rest[:end]
	}
	if len(rest) == 0 {
		return nil
	}
	return rest
}

// appendItems flattens an event's requests into the batch.
func appendItems(items []batchItem, ev *event) []batchItem {
	if ev.Reqs != nil {
		for _, r := range ev.Reqs {
			items = append(items, batchItem{ev: ev, req: r})
		}
		return items
	}
	return append(items, batchItem{ev: ev, req: ev.Req})
}

// deliver routes per-item results back to the issuing clients. One
// event's items are contiguous in the batch (appendItems never splits
// an event), so a pipelined event's results are a contiguous run.
func deliver(items []batchItem, results []serve.Result) {
	i := 0
	for i < len(items) {
		ev := items[i].ev
		if ev.RespN != nil {
			n := len(ev.Reqs)
			out := make([]serve.Result, n)
			copy(out, results[i:i+n])
			ev.RespN <- out
			i += n
			continue
		}
		ev.Resp <- results[i]
		i++
	}
}

// handleEvent serves one request on the worker thread, unbatched (the
// inline harness): the hardened build runs it as a one-request batch on
// worker scratch.
func (s *Server) handleEvent(t *proc.Thread, w *worker, conn *Conn, req []byte) serve.Result {
	if s.cfg.Variant != VariantSDRaD {
		return s.handleOne(t, w, conn, req)
	}
	w.one[0] = batchItem{ev: &event{Conn: conn, Req: req}, req: req}
	return s.runHardenedBatch(t, w, w.one[:1], w.oneRes[:1])[0]
}

// dispatchBatch handles a drained batch of client events, returning one
// result per item. The hardened build handles the whole batch inside a
// single guard scope; baselines handle items one by one (they have no
// per-event domain cost to amortize).
func (s *Server) dispatchBatch(t *proc.Thread, w *worker, items []batchItem) []serve.Result {
	// Safe to reuse across batches: deliver either sends a result by
	// value or copies a pipelined run out before returning.
	if cap(w.results) < len(items) {
		w.results = make([]serve.Result, len(items))
	}
	results := w.results[:len(items)]
	if s.cfg.Variant != VariantSDRaD {
		for i := range items {
			results[i] = s.handleOne(t, w, items[i].ev.Conn, items[i].req)
		}
		return results
	}
	return s.runHardenedBatch(t, w, items, results)
}

// handleOne is the per-request baseline flow: preflight checks, stage
// the request in the connection read buffer, run drive_machine.
func (s *Server) handleOne(t *proc.Thread, w *worker, conn *Conn, req []byte) serve.Result {
	if conn.closed {
		return serve.Result{Closed: true, Err: ErrConnClosed}
	}
	if len(req) > s.cfg.ConnBufSize {
		return serve.Result{Err: ErrRequestTooLarge}
	}
	w.reqs.Add(1)
	c := t.CPU()
	if !conn.ready {
		if err := s.allocConnBuffers(t, conn); err != nil {
			return serve.Result{Err: err}
		}
	}
	// Network bytes land in the connection's read buffer (root memory).
	c.Write(conn.rbuf, req)
	return s.handleBaseline(t, w, conn, len(req))
}

// handleBaseline runs drive_machine directly on the connection buffer. A
// memory-safety violation faults with no recovery point: the process
// supervisor terminates the whole server, which is exactly the behaviour
// the paper's baseline exhibits under CVE-2011-4971.
func (s *Server) handleBaseline(t *proc.Thread, w *worker, conn *Conn, rlen int) serve.Result {
	c := t.CPU()
	w.initAllocators(s)
	w.curT = t
	w.scratchAddrs = w.scratchAddrs[:0]
	env := &w.env
	*env = dmEnv{
		c:            c,
		rbuf:         conn.rbuf,
		rlen:         rlen,
		wbuf:         conn.wbuf,
		wcap:         s.cfg.ConnBufSize,
		allocScratch: w.allocBase,
		ops:          directOps{st: s.st},
		rl:           c.SpanLease(conn.rbuf, s.cfg.ConnBufSize, mem.AccessRead),
		wl:           c.SpanLease(conn.wbuf, s.cfg.ConnBufSize, mem.AccessWrite),
		reply:        &w.rw,
	}
	wlen, closeit, err := driveMachine(env)
	for _, p := range w.scratchAddrs {
		_ = s.connAllocator.Free(c, p)
	}
	if err != nil {
		return serve.Result{Err: err}
	}
	resp := materializeResp(c, env.wl, conn.wbuf, wlen)
	conn.closed = closeit
	if closeit {
		s.freeConnBuffers(t, conn)
	}
	return serve.Result{Resp: resp, Closed: closeit}
}

// materializeResp copies a drive_machine response out of simulated
// memory into a fresh Go slice for delivery to the client — through the
// write lease's native window when it is valid, through the checked
// reader otherwise.
func materializeResp(c *mem.CPU, wl *mem.Lease, wbuf mem.Addr, wlen int) []byte {
	if wlen <= 0 {
		return nil
	}
	if wl != nil {
		if b, ok := wl.Bytes(wbuf, wlen); ok {
			out := make([]byte, wlen)
			copy(out, b)
			return out
		}
	}
	return c.ReadBytes(wbuf, wlen)
}

// freeConnBuffers releases a closed connection's buffers.
func (s *Server) freeConnBuffers(t *proc.Thread, conn *Conn) {
	if !conn.ready {
		return
	}
	if s.cfg.Variant == VariantSDRaD {
		_ = s.lib.Free(t, core.RootUDI, conn.rbuf)
		_ = s.lib.Free(t, core.RootUDI, conn.wbuf)
	} else {
		c := t.CPU()
		_ = s.connAllocator.Free(c, conn.rbuf)
		_ = s.connAllocator.Free(c, conn.wbuf)
	}
	conn.ready = false
}

// runHardenedBatch is the paper's Figure 3 flow, amortized over a batch:
// every live item of the batch is handled in the worker's nested domain
// on a deep copy of its connection buffer, inside ONE guard scope — one
// context save, one Enter/Exit domain-switch round, one deferred-op
// apply. Database mutations stay deferred to normal domain exit (later
// items of the batch read their predecessors' writes through the
// deferred overlay, preserving sequential semantics); an abnormal exit
// anywhere in the batch rewinds once, discards the whole in-flight
// batch, and closes exactly the connections that had a request in it.
func (s *Server) runHardenedBatch(t *proc.Thread, w *worker, items []batchItem, results []serve.Result) []serve.Result {
	c := t.CPU()
	w.initAllocators(s)
	w.curT = t
	bufSize := uint64(s.cfg.ConnBufSize)
	// Worker-owned scratch: a rewound batch may leave stale pending ops
	// behind, so the reset here is also what keeps a discarded batch's
	// mutations from leaking into the next one.
	dops := &w.dops
	dops.st = s.st
	dops.pending = dops.pending[:0]
	if cap(w.states) < len(items) {
		w.states = make([]evState, len(items))
	}
	states := w.states[:len(items)]
	live := 0
	for i := range items {
		states[i] = evState{}
		conn := items[i].ev.Conn
		if conn.closed {
			states[i].done = true
			results[i] = serve.Result{Closed: true, Err: ErrConnClosed}
			continue
		}
		if len(items[i].req) > s.cfg.ConnBufSize {
			states[i].done = true
			results[i] = serve.Result{Err: ErrRequestTooLarge}
			continue
		}
		w.reqs.Add(1)
		if !conn.ready {
			if err := s.allocConnBuffers(t, conn); err != nil {
				states[i].done = true
				results[i] = serve.Result{Err: err}
				continue
			}
		}
		live++
	}
	if live == 0 {
		return results
	}
	// Resilience-policy admission: while the event domain is quarantined
	// (or held off in backoff) the batch is served on the degraded path
	// — no domain re-creation, no guard scope. The Admit call is also
	// what readmits the domain once its cool-down expires.
	if dec := s.lib.Policy().Admit(int(eventUDI)); !dec.Allowed() {
		return s.serveDegraded(t, items, states, results, dec)
	}
	if s.telBatch != nil {
		s.telBatch.Observe(int64(live))
	}
	gerr := s.lib.Guard(t, eventUDI, func() error {
		if !w.domainReady {
			// The domain may have just been re-created (a rewind discards
			// it); re-establish its grant on the shared database. The
			// buffer-copy slots were discarded with the old heap.
			if err := s.lib.DProtect(t, eventUDI, storageUDI, mem.ProtRW); err != nil {
				return err
			}
			w.slots = w.slots[:0]
			w.domainReady = true
		}
		for len(w.slots) < live {
			rb, err := s.lib.Malloc(t, eventUDI, bufSize)
			if err != nil {
				return err
			}
			wb, err := s.lib.Malloc(t, eventUDI, bufSize)
			if err != nil {
				return err
			}
			// Mint the slot's span leases once; Enter/Exit transitions
			// only cost the O(1) renewal recheck from here on.
			w.slots = append(w.slots, connSlot{
				rbuf: rb,
				wbuf: wb,
				rl:   c.NewLease(rb, s.cfg.ConnBufSize, mem.AccessRead),
				wl:   c.NewLease(wb, s.cfg.ConnBufSize, mem.AccessWrite),
			})
		}
		// ④ deep copies: each request is staged through its connection's
		// read buffer (network bytes land in root memory) and copied into
		// the domain slot for its batch position — per item, so a
		// pipelined connection can reuse its read buffer.
		slot := 0
		for i := range items {
			if states[i].done {
				continue
			}
			conn := items[i].ev.Conn
			c.Write(conn.rbuf, items[i].req)
			s.lib.Copy(t, w.slots[slot].rbuf, conn.rbuf, len(items[i].req))
			states[i].slot = slot
			slot++
		}
		// ⑤ enter the domain once, ⑥ drive_machine per item on its copy.
		if err := s.lib.Enter(t, eventUDI); err != nil {
			return err
		}
		// Batch-stable environment fields; the item loop only repoints the
		// buffers and leases at each item's slot.
		env := &w.env
		*env = dmEnv{
			c:            c,
			wcap:         s.cfg.ConnBufSize,
			allocScratch: w.allocDomain,
			ops:          dops,
			reply:        &w.rw,
		}
		for i := range items {
			if states[i].done {
				continue
			}
			// A quit earlier in the batch closes the connection for the
			// items behind it, exactly as if they had arrived after the
			// close in the unbatched flow.
			if closedEarlierInBatch(items, states, i) {
				states[i].done = true
				results[i] = serve.Result{Closed: true, Err: ErrConnClosed}
				continue
			}
			slot := &w.slots[states[i].slot]
			w.scratchAddrs = w.scratchAddrs[:0]
			env.rbuf, env.rlen = slot.rbuf, len(items[i].req)
			env.wbuf = slot.wbuf
			env.rl, env.wl = &slot.rl, &slot.wl
			env.noreply = false
			mark := len(dops.pending)
			var derr error
			states[i].wlen, states[i].closeit, derr = driveMachine(env)
			for _, p := range w.scratchAddrs {
				_ = s.lib.Free(t, eventUDI, p)
			}
			if derr != nil {
				// Internal failure for this item only: its deferred ops
				// are rolled back, the rest of the batch proceeds — the
				// same isolation the unbatched flow gives (the erroring
				// event applied nothing).
				dops.pending = dops.pending[:mark]
				states[i].derr = derr
				continue
			}
			// ⑧ capture the response straight from the slot write buffer
			// while it is cache-hot — through the slot's write lease, one
			// copy into the Go-side delivery slice, replacing the old
			// slot→conn-buffer staging copy plus read-back. The domain is
			// reading its own buffer; an abnormal exit later in the batch
			// discards every captured response with the batch.
			states[i].data = materializeResp(c, &slot.wl, slot.wbuf, states[i].wlen)
		}
		// ⑦ exit back to the root domain once.
		if err := s.lib.Exit(t); err != nil {
			return err
		}
		// ⑨ apply the deferred database updates for the whole batch,
		// grouped per storage shard.
		return dops.apply(c)
	}, core.Accessible(), core.HeapSize(s.cfg.DomainHeapSize))
	if gerr != nil {
		var abn *core.AbnormalExit
		res := serve.Result{Closed: true}
		switch {
		case errors.As(gerr, &abn):
			// ⑫-⑭ rewind happened: the domain, its buffer copies, and the
			// whole in-flight batch (including its un-applied deferred
			// ops) are gone.
			s.rewinds.Add(1)
			if w.ctrl != nil {
				// Multiplicative decrease: the next batches risk less
				// collateral while the rewind window stays hot.
				w.ctrl.NoteRewind()
			}
		case errors.Is(gerr, core.ErrDomainQuarantined):
			// The policy refused to re-create the event domain between
			// the Admit above and the Guard (quarantine raced in, e.g. a
			// concurrent rewind crossed the threshold): the domain, its
			// slots, and the deferred ops never existed, and NO forensics
			// report is synthesized here — the rewind that triggered the
			// quarantine already produced exactly one.
			res.Err = gerr
		default:
			for i := range items {
				if !states[i].done {
					results[i] = serve.Result{Err: gerr}
				}
			}
			return results
		}
		// Either way, close every connection with a request in the batch
		// and keep serving.
		w.domainReady = false
		w.slots = w.slots[:0]
		for i := range items {
			if states[i].done {
				continue
			}
			conn := items[i].ev.Conn
			if !conn.closed {
				conn.closed = true
				s.freeConnBuffers(t, conn)
				s.closedByAtk.Add(1)
			}
			results[i] = res
		}
		return results
	}
	for i := range items {
		if states[i].done {
			continue
		}
		if states[i].derr != nil {
			results[i] = serve.Result{Err: states[i].derr}
			continue
		}
		conn := items[i].ev.Conn
		if states[i].closeit && !conn.closed {
			conn.closed = true
			s.freeConnBuffers(t, conn)
		}
		results[i] = serve.Result{Resp: states[i].data, Closed: states[i].closeit}
	}
	return results
}

// serveDegraded answers a batch while the event domain is quarantined:
// gets are served as misses straight from root memory (the cached data
// died with the discarded domain state's trust anyway — a miss is the
// safe answer), quits close cleanly, and mutations are refused with
// SERVER_ERROR so clients back off. A shedding domain drops its
// connections outright. Nothing here touches the guard scope or the
// shared database, which is the point: the degraded path costs no
// domain re-creation.
func (s *Server) serveDegraded(t *proc.Thread, items []batchItem, states []evState, results []serve.Result, dec policy.Decision) []serve.Result {
	shedding := dec.State == policy.StateShedding
	for i := range items {
		if states[i].done {
			continue
		}
		conn := items[i].ev.Conn
		if shedding {
			if !conn.closed {
				conn.closed = true
				s.freeConnBuffers(t, conn)
				s.shed.Add(1)
			}
			results[i] = serve.Result{Closed: true, Err: ErrConnClosed}
			continue
		}
		s.degraded.Add(1)
		req := items[i].req
		switch {
		case bytes.HasPrefix(req, []byte("get ")), bytes.HasPrefix(req, []byte("gets ")):
			results[i] = serve.Result{Resp: []byte("END\r\n")}
		case bytes.HasPrefix(req, []byte("quit")):
			if !conn.closed {
				conn.closed = true
				s.freeConnBuffers(t, conn)
			}
			results[i] = serve.Result{Closed: true}
		default:
			results[i] = serve.Result{Resp: []byte("SERVER_ERROR event domain quarantined\r\n")}
		}
	}
	return results
}

// Degraded reports how many requests were answered on the quarantine
// degraded path.
func (s *Server) Degraded() int64 { return s.degraded.Load() }

// Shed reports how many connections were closed by load shedding.
func (s *Server) Shed() int64 { return s.shed.Load() }

// closedEarlierInBatch reports whether an earlier live item of the
// current batch closed item i's connection (quit command).
func closedEarlierInBatch(items []batchItem, states []evState, i int) bool {
	for j := 0; j < i; j++ {
		if !states[j].done && states[j].derr == nil && states[j].closeit &&
			items[j].ev.Conn == items[i].ev.Conn {
			return true
		}
	}
	return false
}

// allocConnBuffers provisions a connection's buffers in root memory.
func (s *Server) allocConnBuffers(t *proc.Thread, conn *Conn) error {
	sz := uint64(s.cfg.ConnBufSize)
	if s.cfg.Variant == VariantSDRaD {
		rb, err := s.lib.Malloc(t, core.RootUDI, sz)
		if err != nil {
			return err
		}
		wb, err := s.lib.Malloc(t, core.RootUDI, sz)
		if err != nil {
			return err
		}
		conn.rbuf, conn.wbuf = rb, wb
	} else {
		c := t.CPU()
		rb, err := s.connAllocator.Alloc(c, sz)
		if err != nil {
			return err
		}
		wb, err := s.connAllocator.Alloc(c, sz)
		if err != nil {
			return err
		}
		conn.rbuf, conn.wbuf = rb, wb
	}
	conn.ready = true
	return nil
}

// InlineDo serves one request synchronously on an inline worker thread
// created by RunInline.
type InlineDo func(conn *Conn, req []byte) (resp []byte, closed bool, err error)

// RunInline runs body on a dedicated worker thread that both issues and
// serves requests, with no event-channel hop in between. It exists for
// low-noise benchmarking (single-core CI machines drown the variant
// differences in scheduler noise otherwise); the serving path is exactly
// the one the event loop uses. Connections passed to the returned InlineDo
// must have been created by the NewConn method of this call's handle.
func (s *Server) RunInline(name string, body func(newConn func() *Conn, do InlineDo) error) error {
	w := &worker{idx: -1, s: s, ch: nil}
	h := s.p.Spawn(name, func(t *proc.Thread) error {
		if err := s.initEventDomain(t); err != nil {
			return err
		}
		newConn := func() *Conn {
			return &Conn{id: int(s.connIDs.Add(1)), w: w}
		}
		do := func(conn *Conn, req []byte) ([]byte, bool, error) {
			res := s.handleEvent(t, w, conn, req)
			return res.Resp, res.Closed, res.Err
		}
		return body(newConn, do)
	})
	return h.Join()
}

// NewConn opens a client connection pinned to a worker: round-robin by
// default, or by the load-aware placement scorer when Sched.Route is on
// — queue depth, EWMA service latency, and rewind-window heat steer new
// connections onto calm workers at the one moment they can still be
// steered.
func (s *Server) NewConn() *Conn {
	return &Conn{
		id: int(s.connIDs.Add(1)),
		w:  s.placeWorker(),
	}
}

// placeWorker picks the worker a new connection is pinned to. Outside
// route mode it is the legacy round-robin cursor, bit for bit. In route
// mode every worker has a controller (route requires Sched), and the
// scorer's rotated tie-break reproduces the round-robin fill order
// exactly while the cluster is idle.
func (s *Server) placeWorker() *worker {
	if !s.route {
		return s.workers[int(s.rr.Add(1)-1)%len(s.workers)]
	}
	loads := make([]sched.WorkerLoad, len(s.workers))
	for i, w := range s.workers {
		ewma, wins := w.ctrl.Load()
		loads[i] = sched.WorkerLoad{Queue: w.queued(), EWMAItemNs: ewma, WindowRewinds: wins}
	}
	return s.workers[sched.PlacementPick(loads, int(s.place.Add(1)-1))]
}

// WorkerIndex reports which worker the connection is pinned to (chaos
// campaigns assert placement decisions through it).
func (c *Conn) WorkerIndex() int { return c.w.idx }

// ConnOn opens a connection pinned to worker idx, bypassing placement.
// Chaos campaigns use it to park a chosen worker or stage a
// deterministic backlog; real accept paths go through NewConn.
func (s *Server) ConnOn(idx int) *Conn {
	return &Conn{id: int(s.connIDs.Add(1)), w: s.workers[idx]}
}

// KeyWorker reports which worker a single keyed request for key routes
// to under shard-affinity routing (the connection's pinning is
// irrelevant for keyed traffic once the scheduler routes). Returns -1
// without a router (scheduler off, or a single worker).
func (s *Server) KeyWorker(key []byte) int {
	if s.router == nil {
		return -1
	}
	return s.router.Worker(s.st.ShardFor(key))
}

// EventDomainUDI is the UDI of the per-worker event-handling domain,
// for policy-snapshot assertions outside the package.
func EventDomainUDI() int { return int(eventUDI) }

// Do sends one request on the connection and waits for the response.
// closed reports that the server closed the connection (quit command or
// attack recovery).
//
// With the scheduler enabled the event is routed to the worker biased
// to the request key's storage shard instead of the connection's pinned
// worker, so concurrent workers flush disjoint lock stripes. Do is
// synchronous, so successive requests of one connection still serialize
// (channel send/receive orders the ownership handoff); a Conn must not
// be shared by concurrent Do callers, as before.
func (c *Conn) Do(req []byte) (resp []byte, closed bool, err error) {
	s := c.w.s
	r := serve.Do(s.submitQueue(c, req), s.p.Done(), ErrServerDown, c, req)
	return r.Resp, r.Closed, r.Err
}

// workerFor picks the worker an event should run on: the shard-affinity
// bias when the scheduler is routing, the connection's pinned worker
// otherwise (and for keyless requests).
func (s *Server) workerFor(c *Conn, req []byte) *worker {
	if s.router == nil {
		return c.w
	}
	key := requestKeyBytes(req)
	if key == nil {
		return c.w
	}
	return s.workers[s.router.Worker(s.st.ShardFor(key))]
}

// submitQueue picks the channel a single Do request is submitted on:
// the target worker's steal-eligible queue for keyed requests in steal
// mode (a sibling at the floor may take them), its main queue otherwise.
func (s *Server) submitQueue(c *Conn, req []byte) chan<- *event {
	w := s.workerFor(c, req)
	if w.stealch != nil && requestKeyBytes(req) != nil {
		return w.stealch
	}
	return w.ch
}

// PipelineResult is one request's outcome from DoPipeline.
type PipelineResult = serve.Result

// DoPipeline sends reqs back-to-back on the connection and returns one
// result per request, in order. The server handles up to MaxBatch
// pipelined requests of one connection inside a single guard scope —
// one domain switch round, one scratch arena, one deferred-op apply —
// which is where the batched hardened build earns its throughput
// (longer pipelines are split into MaxBatch-sized chunks client-side).
// Requests behind a server-side close (quit, or attack recovery) report
// Closed with ErrConnClosed, exactly as if they were issued after it.
func (c *Conn) DoPipeline(reqs [][]byte) []PipelineResult {
	s := c.w.s
	// All chunks go to ONE worker: concurrent chunks of a pipeline on
	// two workers would race on the connection's buffers. With the
	// scheduler routing, the pipeline's first key picks the worker.
	w := c.w
	if s.router != nil && len(reqs) > 0 {
		w = s.workerFor(c, reqs[0])
	}
	return serve.DoPipeline(w.ch, s.p.Done(), ErrServerDown, c, reqs, s.cfg.MaxBatch)
}

// MaxBatch returns the server's configured guard-scope batch limit.
func (s *Server) MaxBatch() int { return s.cfg.MaxBatch }

// QueueDepth reports how many events are queued (undrained) for worker
// i, across both its queues. It is a monitoring signal: the scheduler
// benchmark and operational dashboards use it to observe backlog; the
// value is stale the moment it is read.
func (s *Server) QueueDepth(i int) int { return s.workers[i].queued() }

// Steals reports completed cross-worker steal rounds.
func (s *Server) Steals() int64 { return s.steals.Load() }

// StolenEvents reports how many pending events stealing moved.
func (s *Server) StolenEvents() int64 { return s.stolenEvents.Load() }

// StealSegments reports the guard scopes run for stolen shard segments.
func (s *Server) StealSegments() int64 { return s.stealSegments.Load() }

// Inspect runs fn on the worker thread that owns this connection, like a
// request but with the worker's thread handed to the closure. The chaos
// engine uses it to run invariant audits and arm fault injectors on the
// serving thread between events; fn must leave the thread in the root
// domain.
func (c *Conn) Inspect(fn func(t *proc.Thread) error) error {
	return serve.Inspect(c.w.ch, c.w.s.p.Done(), ErrServerDown, fn)
}

// Stop shuts the server down and waits for the workers.
func (s *Server) Stop() {
	s.p.Shutdown()
	s.p.Wait()
}

// Crashed reports whether the server process died (baseline under
// attack) and the recorded cause.
func (s *Server) Crashed() (bool, error) {
	if !s.p.Killed() {
		return false, nil
	}
	return s.p.ExitError() != nil, s.p.ExitError()
}

// Rewinds reports how many abnormal domain exits the server recovered.
func (s *Server) Rewinds() int64 { return s.rewinds.Load() }

// MappedBytes is the resident-set-size analog: bytes of simulated memory
// currently mapped by the server process.
func (s *Server) MappedBytes() int64 {
	return s.p.AddressSpace().Stats().MappedBytes.Load()
}

// StorageStats returns cache statistics.
func (s *Server) StorageStats() StorageStats { return s.st.Stats() }

// Storage exposes the shared database, for invariant audits (run it on
// the owning worker thread via Conn.Inspect).
func (s *Server) Storage() *Storage { return s.st }

// Process exposes the simulated process (tests, benchmarks).
func (s *Server) Process() *proc.Process { return s.p }

// Library exposes the SDRaD library of the hardened build (nil
// otherwise).
func (s *Server) Library() *core.Library { return s.lib }

// Variant returns the build variant.
func (s *Server) Variant() Variant { return s.cfg.Variant }

// SchedSnapshots returns each worker's adaptive-controller snapshot
// (nil when the scheduler is disabled).
func (s *Server) SchedSnapshots() []sched.Snapshot {
	if s.cfg.Sched == nil {
		return nil
	}
	out := make([]sched.Snapshot, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.ctrl.Snapshot()
	}
	return out
}

// inspectOn runs fn on worker idx's thread (control event).
func (s *Server) inspectOn(idx int, fn func(t *proc.Thread) error) error {
	c := &Conn{id: int(s.connIDs.Add(1)), w: s.workers[idx]}
	return c.Inspect(fn)
}

// RebalanceTick runs one contention-driven rebalance round: the planner
// inspects the per-shard lock-wait/batch-op deltas and per-slot op
// counts, and each planned hot-slot move executes on worker 0's thread
// (root-domain rights over the storage domain) with the epoch handoff.
// Returns the number of slot moves executed. No-op without Config.Sched.
func (s *Server) RebalanceTick() int {
	if s.rebalancer == nil {
		return 0
	}
	loads := s.st.ContentionStats()
	shardLoads := make([]sched.ShardLoad, len(loads))
	for i, l := range loads {
		shardLoads[i] = sched.ShardLoad{WaitNs: l.WaitNs, BatchOps: l.BatchOps}
	}
	moves := s.rebalancer.Plan(s.st.SlotShard, shardLoads, s.st.SlotLoads())
	executed := 0
	for _, m := range moves {
		mv := m
		err := s.inspectOn(0, func(t *proc.Thread) error {
			_, err := s.st.MoveSlot(t.CPU(), mv.Slot, mv.To)
			return err
		})
		if err != nil {
			break
		}
		executed++
	}
	return executed
}

// StartRebalancer runs RebalanceTick every interval until the returned
// stop function is called or the server shuts down.
func (s *Server) StartRebalancer(interval time.Duration) (stop func()) {
	if s.rebalancer == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.RebalanceTick()
			case <-done:
				return
			case <-s.p.Done():
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
