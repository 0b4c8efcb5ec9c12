package sched

import (
	"testing"
	"time"

	"sdrad/internal/policy"
)

func manualController(t *testing.T, maxBatch int) (*Controller, *policy.ManualClock) {
	t.Helper()
	mc := &policy.ManualClock{}
	mc.Set(int64(time.Hour))
	c := NewController(Config{Clock: mc.Now}, maxBatch)
	return c, mc
}

func TestControllerStartsAtCeiling(t *testing.T) {
	c, _ := manualController(t, 16)
	if got := c.Bound(); got != 16 {
		t.Fatalf("initial bound = %d, want 16", got)
	}
	if got := c.MaxBatch(); got != 16 {
		t.Fatalf("MaxBatch = %d, want 16", got)
	}
}

func TestControllerIdleCollapseTowardOne(t *testing.T) {
	c, mc := manualController(t, 16)
	// Single-item rounds with no backlog: collapse one halving step per
	// IdleRounds (default 2) until the bound reaches 1.
	for i := 0; i < 20; i++ {
		c.ObserveRound(0, 1, 1000)
		mc.Advance(time.Millisecond)
	}
	if got := c.Bound(); got != 1 {
		t.Fatalf("bound after idle rounds = %d, want 1", got)
	}
	if c.Snapshot().Collapses == 0 {
		t.Fatalf("expected collapse steps to be counted")
	}
}

func TestControllerGrowsUnderSustainedBacklog(t *testing.T) {
	c, mc := manualController(t, 16)
	// Collapse first, then show sustained depth.
	for i := 0; i < 20; i++ {
		c.ObserveRound(0, 1, 1000)
	}
	if c.Bound() != 1 {
		t.Fatalf("precondition: bound = %d, want 1", c.Bound())
	}
	for i := 0; i < 30; i++ {
		c.ObserveRound(4, c.Bound(), int64(1000*c.Bound()))
		mc.Advance(time.Millisecond)
	}
	if got := c.Bound(); got != 16 {
		t.Fatalf("bound under sustained backlog = %d, want 16", got)
	}
}

func TestControllerGuardCostAcceleratesGrowth(t *testing.T) {
	mc := &policy.ManualClock{}
	mc.Set(int64(time.Hour))
	slow := NewController(Config{Clock: mc.Now}, 16)
	fast := NewController(Config{Clock: mc.Now, GuardCostNs: func() int64 { return 100_000 }}, 16)
	for _, c := range []*Controller{slow, fast} {
		for i := 0; i < 20; i++ {
			c.ObserveRound(0, 1, 1000)
		}
	}
	// Three backlogged rounds: the guard-cost-aware controller grows in
	// steps of 2, the plain one in steps of 1.
	for i := 0; i < 3; i++ {
		slow.ObserveRound(4, slow.Bound(), int64(1000*slow.Bound()))
		fast.ObserveRound(4, fast.Bound(), int64(1000*fast.Bound()))
	}
	if slow.Bound() >= fast.Bound() {
		t.Fatalf("guard-cost growth: slow=%d fast=%d, want fast > slow", slow.Bound(), fast.Bound())
	}
}

func TestControllerRewindMultiplicativeDecrease(t *testing.T) {
	c, mc := manualController(t, 16)
	c.NoteRewind()
	if got := c.Bound(); got != 8 {
		t.Fatalf("bound after 1 rewind = %d, want 8", got)
	}
	c.NoteRewind()
	c.NoteRewind()
	// Three rewinds in the window: halved each time AND capped at
	// MaxBatch>>3 = 2.
	if got := c.Bound(); got != 2 {
		t.Fatalf("bound after 3 rewinds = %d, want 2", got)
	}
	if got := c.Snapshot().WindowRewinds; got != 3 {
		t.Fatalf("window rewinds = %d, want 3", got)
	}
	// While the window is hot, backlogged rounds must not outgrow the
	// rewind ceiling.
	for i := 0; i < 10; i++ {
		c.ObserveRound(8, c.Bound(), int64(1000*c.Bound()))
		mc.Advance(time.Millisecond)
	}
	if got := c.Bound(); got > 2 {
		t.Fatalf("bound grew to %d under a hot rewind window, cap 2", got)
	}
}

func TestControllerWindowDrainRestoresGrowth(t *testing.T) {
	c, mc := manualController(t, 16)
	c.NoteRewind()
	c.NoteRewind()
	c.NoteRewind()
	mc.Advance(2 * time.Second) // default window is 1s
	for i := 0; i < 30; i++ {
		c.ObserveRound(8, c.Bound(), int64(1000*c.Bound()))
		mc.Advance(time.Millisecond)
	}
	if got := c.Bound(); got != 16 {
		t.Fatalf("bound after window drain = %d, want 16", got)
	}
	if got := c.Snapshot().WindowRewinds; got != 0 {
		t.Fatalf("window rewinds after drain = %d, want 0", got)
	}
}

func TestControllerLatencyBrake(t *testing.T) {
	c, mc := manualController(t, 16)
	// Establish a baseline EWMA with healthy multi-item rounds (keep the
	// backlog nonzero so no idle collapse interferes).
	for i := 0; i < 10; i++ {
		c.ObserveRound(4, 16, 16*1000)
		mc.Advance(time.Millisecond)
	}
	if c.Bound() != 16 {
		t.Fatalf("precondition: bound = %d, want 16", c.Bound())
	}
	// One pathological round: 10x the per-item EWMA.
	c.ObserveRound(4, 16, 16*10_000)
	if got := c.Bound(); got != 8 {
		t.Fatalf("bound after latency spike = %d, want 8", got)
	}
}

func TestControllerClockGoingBackwardsIsClamped(t *testing.T) {
	c, mc := manualController(t, 16)
	c.NoteRewind()
	mc.Set(0) // clock jumps backwards; the monotonic clamp must hold
	c.ObserveRound(1, 1, 1000)
	if got := c.Snapshot().WindowRewinds; got != 1 {
		t.Fatalf("window rewinds after clock jump = %d, want 1 (not pruned, not stuck)", got)
	}
}

func TestRouterUniformInitialAssignment(t *testing.T) {
	r := NewRouter(4, 16)
	for s := 0; s < 16; s++ {
		if got := r.Worker(s); got != s%4 {
			t.Fatalf("shard %d → worker %d, want %d", s, got, s%4)
		}
	}
}

func TestRouterKeylessSpreadsRoundRobin(t *testing.T) {
	// Keyless (-1) and out-of-range shards have no affinity to honour;
	// they must spread round-robin across all workers instead of piling
	// onto worker 0.
	r := NewRouter(4, 16)
	counts := make([]int, 4)
	for i := 0; i < 40; i++ {
		shard := -1
		if i%2 == 1 {
			shard = 16 + i // out-of-range behaves like keyless
		}
		w := r.Worker(shard)
		if w < 0 || w >= 4 {
			t.Fatalf("keyless pick %d out of range", w)
		}
		counts[w]++
	}
	for w, n := range counts {
		if n != 10 {
			t.Fatalf("worker %d got %d keyless events, want 10 (counts %v)", w, n, counts)
		}
	}
	// Keyed routing is unaffected by the keyless cursor.
	if got := r.Worker(7); got != 7%4 {
		t.Fatalf("keyed shard 7 → worker %d, want %d", got, 7%4)
	}
}

func TestRebalancerMovesHotSlot(t *testing.T) {
	// 4 shards, 16 slots, identity mapping slot→slot%4. Shard 1 is hot:
	// all its traffic on slots 1 and 5.
	shardOf := func(slot int) int { return slot % 4 }
	rb := NewRebalancer(RebalanceConfig{MinOps: 100})
	shards := make([]ShardLoad, 4)
	slots := make([]int64, 16)
	shards[1] = ShardLoad{WaitNs: 4_000_000, BatchOps: 4000}
	shards[0] = ShardLoad{BatchOps: 100}
	shards[2] = ShardLoad{BatchOps: 100}
	shards[3] = ShardLoad{BatchOps: 100}
	slots[1] = 2600
	slots[5] = 1400
	moves := rb.Plan(shardOf, shards, slots)
	if len(moves) != 1 {
		t.Fatalf("planned %d moves, want 1: %+v", len(moves), moves)
	}
	m := moves[0]
	if m.From != 1 {
		t.Fatalf("move from shard %d, want 1", m.From)
	}
	if m.Slot != 1 && m.Slot != 5 {
		t.Fatalf("moved slot %d, want one of shard 1's slots", m.Slot)
	}
	if m.To == 1 {
		t.Fatalf("move targets the hot shard itself")
	}
	// The non-dominant slot is preferred: slot 1 carries 65% of the
	// traffic, so slot 5 should move.
	if m.Slot != 5 {
		t.Fatalf("moved slot %d, want the non-dominant slot 5", m.Slot)
	}
}

func TestRebalancerBalancedLoadPlansNothing(t *testing.T) {
	shardOf := func(slot int) int { return slot % 4 }
	rb := NewRebalancer(RebalanceConfig{MinOps: 100})
	shards := make([]ShardLoad, 4)
	slots := make([]int64, 16)
	for i := range shards {
		shards[i] = ShardLoad{BatchOps: 1000}
	}
	for s := range slots {
		slots[s] = 250
	}
	if moves := rb.Plan(shardOf, shards, slots); len(moves) != 0 {
		t.Fatalf("balanced load planned moves: %+v", moves)
	}
}

func TestRebalancerWorksOnDeltas(t *testing.T) {
	shardOf := func(slot int) int { return slot % 2 }
	rb := NewRebalancer(RebalanceConfig{MinOps: 100})
	shards := []ShardLoad{{BatchOps: 10_000}, {BatchOps: 100}}
	slots := []int64{6000, 50, 4000, 50}
	if moves := rb.Plan(shardOf, shards, slots); len(moves) != 1 {
		t.Fatalf("first plan: want 1 move, got %+v", moves)
	}
	// Same cumulative counters again: zero delta, nothing to do.
	if moves := rb.Plan(shardOf, shards, slots); len(moves) != 0 {
		t.Fatalf("zero-delta plan proposed moves: %+v", moves)
	}
}

func TestRebalancerBelowMinOpsPlansNothing(t *testing.T) {
	shardOf := func(slot int) int { return slot % 2 }
	rb := NewRebalancer(RebalanceConfig{MinOps: 1000})
	shards := []ShardLoad{{BatchOps: 400}, {BatchOps: 10}}
	slots := []int64{300, 5, 100, 5}
	if moves := rb.Plan(shardOf, shards, slots); len(moves) != 0 {
		t.Fatalf("below-MinOps plan proposed moves: %+v", moves)
	}
}

func TestControllerAtFloor(t *testing.T) {
	c, mc := manualController(t, 16)
	if c.AtFloor() {
		t.Fatal("fresh controller at ceiling reports AtFloor")
	}
	for i := 0; i < 20; i++ {
		c.ObserveRound(0, 1, 1000)
		mc.Advance(time.Millisecond)
	}
	if !c.AtFloor() {
		t.Fatalf("bound %d after idle collapse, AtFloor = false", c.Bound())
	}
	// A rewind heats the window: the floor fast path must stay off until
	// the window drains, even though the bound is still 1.
	c.NoteRewind()
	if c.AtFloor() {
		t.Fatal("AtFloor with a hot rewind window")
	}
	mc.Advance(2 * time.Second)
	c.ObserveRound(0, 1, 1000)
	if !c.AtFloor() {
		t.Fatal("AtFloor = false after the rewind window drained")
	}
}
