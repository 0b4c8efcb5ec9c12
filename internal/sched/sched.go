// Package sched is the self-tuning batch/shard scheduler consulted by
// the worker drain loops of the hardened servers (internal/memcache,
// internal/httpd). It has three cooperating parts, all stdlib-only and
// deterministic under a hand-advanced clock (mirroring internal/policy's
// ManualClock discipline):
//
//   - Controller: a per-worker AIMD batch-size controller. The guard
//     scope amortizes one Guard/Enter/Exit domain-switch round over a
//     batch, but a single fault discards the whole batch, so the optimal
//     size depends on load AND on the live rewind rate. The controller
//     grows the bound additively toward MaxBatch while the channel shows
//     sustained backlog, collapses it toward 1 across idle rounds (a
//     lone request should not drag a 16-slot scope around), and shrinks
//     it multiplicatively the moment a rewind lands, holding a ceiling
//     of MaxBatch >> windowRewinds while the sliding rewind window is
//     hot — the "Unlimited Lives" rewind-rate signal applied to batch
//     sizing instead of admission.
//
//   - Router: the worker→shard affinity bias. Keys hash-partition over
//     the storage shards; routing an event to the worker assigned to
//     its key's shard makes concurrent workers flush disjoint lock
//     stripes through ApplyShardBatch.
//
//   - Rebalancer: pure decision logic over per-shard contention counters
//     (lock-wait nanoseconds, batched ops) and per-slot op counts. It
//     plans hot-slot moves in the storage key→shard remap table; the
//     storage layer executes them with an epoch handoff so in-flight
//     batches stay consistent.
package sched

import (
	"sync/atomic"
	"time"
)

// MinSplitRun is the smallest contiguous same-shard event run worth its
// own guard scope when the server splits a mixed batch by shard.
const MinSplitRun = 4

// Config parameterizes a Controller (and carries the server-side routing
// and stealing switches). The zero value is usable: defaults are applied
// by the server when it adopts the config.
type Config struct {
	// MaxBatch is the controller ceiling. The server defaults it to its
	// own MaxBatch; the adaptive bound never exceeds it, which is why
	// domain-heap sizing may keep tracking MaxBatch.
	MaxBatch int
	// Window is the sliding rewind window (default 1s, matching
	// internal/policy's default).
	Window time.Duration
	// IdleRounds is how many consecutive backlog-free rounds trigger one
	// halving step toward bound 1 (default 2).
	IdleRounds int
	// Clock returns nanoseconds; nil uses time.Now().UnixNano(). Chaos
	// campaigns and tests install a policy.ManualClock's Now so every
	// window decision is deterministic.
	Clock func() int64
	// GuardCostNs, when non-nil, estimates the current Enter+Exit
	// domain-switch cost (typically the telemetry enter/exit latency
	// histograms' median). When the guard cost is a large share of the
	// observed per-item latency the controller grows in bigger steps —
	// amortization is paying for itself.
	GuardCostNs func() int64
	// Route enables load-aware connection placement: the accept path
	// scores workers by queue depth, EWMA service latency, and
	// rewind-window heat instead of blind round-robin. Off keeps the
	// legacy round-robin pinning bit-identical.
	Route bool
	// Steal enables cross-worker stealing: a worker at the AIMD floor
	// with an empty queue takes a shard-affinity-aligned segment of the
	// most-backlogged sibling's pending events and runs it as its own
	// guard scope. Off keeps the legacy per-worker queues bit-identical.
	Steal bool
	// StealInterval bounds how long an idle floor worker blocks before
	// re-checking sibling backlogs (default 200µs). Chaos campaigns set
	// it very large so steals happen only when explicitly poked.
	StealInterval time.Duration
	// OnFloorPinned, when non-nil, fires when a controller has been
	// pinned at bound 1 by a hot rewind window for a full Window — the
	// signal that batching alone cannot absorb the fault rate and the
	// policy engine should start backing the domain off. Called from the
	// owning worker goroutine with the pinned duration in nanoseconds.
	OnFloorPinned func(pinnedNs int64)
}

func (c Config) withDefaults(maxBatch int) Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = maxBatch
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1
	}
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.IdleRounds <= 0 {
		c.IdleRounds = 2
	}
	if c.StealInterval <= 0 {
		c.StealInterval = 200 * time.Microsecond
	}
	if c.Clock == nil {
		c.Clock = func() int64 { return time.Now().UnixNano() }
	}
	return c
}

// Controller is one worker's adaptive batch-bound state. All mutating
// calls (ObserveRound, NoteRewind) happen on the owning worker
// goroutine; the current bound is published atomically so snapshots and
// metric scrapes from other goroutines are safe.
type Controller struct {
	cfg   Config
	bound atomic.Int64

	// Worker-goroutine-owned state.
	idle       int
	ewmaItemNs int64
	rewinds    []int64 // rewind timestamps inside the window, oldest first
	lastNow    int64   // monotonic clamp, mirroring policy.Engine.now
	floorSince int64   // clock ns when the bound became rewind-pinned at 1; 0 = not pinned

	// Cross-goroutine mirrors of the worker-owned load signals, published
	// so the conn-accept placement scorer can read them without racing
	// the drain loop.
	ewmaPub atomic.Int64
	winPub  atomic.Int32

	grows     atomic.Int64
	shrinks   atomic.Int64
	collapses atomic.Int64
	floorPins atomic.Int64
}

// NewController builds a controller. maxBatch is the server's configured
// ceiling, used when cfg.MaxBatch is unset. The bound starts at the
// ceiling: with no signal yet, the legacy fixed-MaxBatch behaviour is
// the safe default, and the idle collapse walks it down within a few
// quiet rounds.
func NewController(cfg Config, maxBatch int) *Controller {
	c := &Controller{cfg: cfg.withDefaults(maxBatch)}
	c.bound.Store(int64(c.cfg.MaxBatch))
	return c
}

// Bound returns the current batch bound in [1, MaxBatch].
func (c *Controller) Bound() int { return int(c.bound.Load()) }

// MaxBatch returns the controller ceiling.
func (c *Controller) MaxBatch() int { return c.cfg.MaxBatch }

// Now reads the controller clock (the worker uses it to time rounds so
// manual-clock runs stay deterministic).
func (c *Controller) Now() int64 { return c.cfg.Clock() }

// Route reports whether load-aware connection placement is enabled.
func (c *Controller) Route() bool { return c.cfg.Route }

// Steal reports whether cross-worker stealing is enabled.
func (c *Controller) Steal() bool { return c.cfg.Steal }

// StealInterval is the idle floor worker's backlog re-check period.
func (c *Controller) StealInterval() time.Duration { return c.cfg.StealInterval }

// Load returns the published load signals — EWMA per-item latency and
// the live rewind-window count — safe to read from any goroutine. The
// placement scorer combines them with queue depth to pick calm workers.
func (c *Controller) Load() (ewmaItemNs int64, windowRewinds int) {
	return c.ewmaPub.Load(), int(c.winPub.Load())
}

// AtFloor reports that the controller sits at bound 1 with an empty
// rewind window — the state a lone idle request cannot move, which lets
// the worker skip the round observation entirely. Call it from the
// owning worker goroutine (it reads the window).
func (c *Controller) AtFloor() bool {
	return c.bound.Load() == 1 && len(c.rewinds) == 0
}

// now reads the clock with a monotonic clamp, as policy.Engine does.
func (c *Controller) now() int64 {
	n := c.cfg.Clock()
	if n < c.lastNow {
		n = c.lastNow
	}
	c.lastNow = n
	return n
}

// pruneWindow drops rewind timestamps older than the window.
func (c *Controller) pruneWindow(now int64) {
	cut := now - int64(c.cfg.Window)
	i := 0
	for i < len(c.rewinds) && c.rewinds[i] <= cut {
		i++
	}
	if i > 0 {
		c.rewinds = append(c.rewinds[:0], c.rewinds[i:]...)
	}
	c.winPub.Store(int32(len(c.rewinds)))
}

// checkFloorPin tracks how long the bound has been rewind-pinned at the
// floor. Idle collapse also parks the bound at 1, but that is healthy;
// only "1 because the rewind window keeps it there" counts. Once the
// pin has lasted a full Window the OnFloorPinned hook fires and the
// timer re-arms, so a persistently faulting domain escalates once per
// window rather than once per round.
func (c *Controller) checkFloorPin(now int64) {
	if c.bound.Load() != 1 || len(c.rewinds) == 0 {
		c.floorSince = 0
		return
	}
	if c.floorSince == 0 {
		c.floorSince = now
		return
	}
	if pinned := now - c.floorSince; pinned >= int64(c.cfg.Window) {
		c.floorPins.Add(1)
		c.floorSince = now
		if c.cfg.OnFloorPinned != nil {
			c.cfg.OnFloorPinned(pinned)
		}
	}
}

// rewindCap is the multiplicative ceiling the hot rewind window imposes:
// MaxBatch >> windowRewinds, floored at 1. Every additional rewind in
// the window halves how much work one fault may discard.
func (c *Controller) rewindCap() int {
	n := len(c.rewinds)
	if n >= 63 {
		return 1
	}
	cap := c.cfg.MaxBatch >> uint(n)
	if cap < 1 {
		cap = 1
	}
	return cap
}

// NoteRewind records an absorbed rewind: multiplicative decrease, and
// the window ceiling tightens for as long as the window stays hot. Call
// it from the worker goroutine that absorbed the fault.
func (c *Controller) NoteRewind() {
	now := c.now()
	c.pruneWindow(now)
	c.rewinds = append(c.rewinds, now)
	c.winPub.Store(int32(len(c.rewinds)))
	b := int(c.bound.Load()) / 2
	if b < 1 {
		b = 1
	}
	if cap := c.rewindCap(); b > cap {
		b = cap
	}
	c.bound.Store(int64(b))
	c.shrinks.Add(1)
	c.checkFloorPin(now)
}

// ObserveRound feeds one drain-round observation: backlog is the channel
// queue depth left after the drain, drained the number of items taken
// into the round, elapsedNs the round's wall time. It applies, in order:
// the rewind-window ceiling, the latency brake (a round whose per-item
// latency blows far past the EWMA halves the bound), additive increase
// under sustained backlog, and the idle collapse toward 1.
func (c *Controller) ObserveRound(backlog, drained int, elapsedNs int64) {
	if drained <= 0 {
		return
	}
	now := c.now()
	c.pruneWindow(now)
	b := int(c.bound.Load())

	itemNs := elapsedNs / int64(drained)
	// The brake compares this round against the EWMA as it stood BEFORE
	// the round — folding the spike in first would dilute the baseline it
	// is judged against.
	prev := c.ewmaItemNs
	if prev == 0 {
		prev = itemNs
	}
	ewma := (3*prev + itemNs) / 4
	c.ewmaItemNs = ewma
	c.ewmaPub.Store(ewma)

	if cap := c.rewindCap(); b > cap {
		b = cap
		c.shrinks.Add(1)
	}
	// Latency brake: a 4x per-item blowup on a multi-item round means the
	// batch is queuing behind itself (lock convoy, slab pressure) — shed
	// size before growing again.
	if drained > 1 && prev > 0 && itemNs > 4*prev {
		if b > 1 {
			b /= 2
			c.shrinks.Add(1)
		}
	} else if backlog > 0 && drained >= b {
		// Additive increase under sustained depth. When the guard cost
		// dominates the per-item latency, amortization is the whole game:
		// grow twice as fast.
		step := 1
		if c.cfg.GuardCostNs != nil && b > 0 {
			if g := c.cfg.GuardCostNs(); g > 0 && ewma > 0 && g/int64(b) > ewma/10 {
				step = 2
			}
		}
		nb := b + step
		if cap := c.rewindCap(); nb > cap {
			nb = cap
		}
		if nb > c.cfg.MaxBatch {
			nb = c.cfg.MaxBatch
		}
		if nb > b {
			b = nb
			c.grows.Add(1)
		}
		c.idle = 0
	}
	if backlog == 0 && drained <= 1 {
		c.idle++
		if c.idle >= c.cfg.IdleRounds && b > 1 {
			b /= 2
			c.idle = 0
			c.collapses.Add(1)
		}
	} else {
		c.idle = 0
	}
	if b < 1 {
		b = 1
	}
	c.bound.Store(int64(b))
	c.checkFloorPin(now)
}

// ObserveIdle feeds one traffic-free round (a steal-interval timeout
// with nothing drained). ObserveRound ignores drained==0, so a worker
// that never sees traffic would otherwise be stuck at the MaxBatch
// starting bound forever and never reach the floor that makes it a
// steal candidate. Call it from the owning worker goroutine.
func (c *Controller) ObserveIdle() {
	now := c.now()
	c.pruneWindow(now)
	c.idle++
	if c.idle >= c.cfg.IdleRounds {
		c.idle = 0
		if b := int(c.bound.Load()); b > 1 {
			c.bound.Store(int64(b / 2))
			c.collapses.Add(1)
		}
	}
	c.checkFloorPin(now)
}

// Snapshot is a point-in-time controller state for chaos assertions,
// tests, and metric exposition.
type Snapshot struct {
	Bound         int
	MaxBatch      int
	WindowRewinds int
	EWMAItemNs    int64
	Grows         int64
	Shrinks       int64
	Collapses     int64
	FloorPins     int64
}

// Snapshot reads the controller state, safe from any goroutine.
// WindowRewinds and EWMAItemNs come from the published load mirrors, so
// they are current as of the worker's last round (exact when the worker
// is quiescent, which is how the deterministic chaos campaign reads
// them).
func (c *Controller) Snapshot() Snapshot {
	ewma, win := c.Load()
	return Snapshot{
		Bound:         int(c.bound.Load()),
		MaxBatch:      c.cfg.MaxBatch,
		WindowRewinds: win,
		EWMAItemNs:    ewma,
		Grows:         c.grows.Load(),
		Shrinks:       c.shrinks.Load(),
		Collapses:     c.collapses.Load(),
		FloorPins:     c.floorPins.Load(),
	}
}
