package sched

import "sync/atomic"

// Router is the worker→shard affinity map: shard s is flushed by worker
// assign[s]. Events whose key maps to shard s are routed to that worker,
// so concurrent workers take disjoint lock stripes through
// ApplyShardBatch instead of colliding on whichever shard their
// round-robin connections happen to touch. The map is fixed at
// construction; only the keyless cursor is shared mutable state on the
// per-request submit path.
type Router struct {
	workers int
	assign  []int
	keyless atomic.Int64 // round-robin cursor for keyless/out-of-range shards
}

// NewRouter builds the initial bias: shard s → worker s mod workers, a
// uniform stripe-to-worker partition.
func NewRouter(workers, shards int) *Router {
	if workers < 1 {
		workers = 1
	}
	if shards < 1 {
		shards = 1
	}
	r := &Router{workers: workers, assign: make([]int, shards)}
	for s := range r.assign {
		r.assign[s] = s % workers
	}
	return r
}

// Worker returns the worker biased to shard. Out-of-range shards
// (callers pass -1 for "no key") have no affinity to preserve, so they
// are spread round-robin — pinning them all to worker 0, as an earlier
// version did, silently concentrated every keyless command on one
// worker.
func (r *Router) Worker(shard int) int {
	if shard < 0 || shard >= len(r.assign) {
		return int(r.keyless.Add(1)-1) % r.workers
	}
	return r.assign[shard]
}
