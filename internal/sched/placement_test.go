package sched

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestPlacementPickPrefersCalmWorker(t *testing.T) {
	loads := []WorkerLoad{
		{Queue: 8, EWMAItemNs: 2000},
		{Queue: 0, EWMAItemNs: 2000},
		{Queue: 8, EWMAItemNs: 2000},
	}
	if got := PlacementPick(loads, 0); got != 1 {
		t.Fatalf("pick = %d, want the empty-queue worker 1", got)
	}
}

func TestPlacementPickAvoidsRewindHotWorker(t *testing.T) {
	// Same queue depth and latency everywhere, but worker 0 has a hot
	// rewind window: the 2x-per-rewind penalty must steer away from it
	// even from a tie-cursor that would otherwise land there.
	loads := []WorkerLoad{
		{Queue: 2, EWMAItemNs: 1500, WindowRewinds: 3},
		{Queue: 2, EWMAItemNs: 1500},
	}
	if got := PlacementPick(loads, 0); got != 1 {
		t.Fatalf("pick = %d, want the rewind-free worker 1", got)
	}
	if got := PlacementPick(loads, 1); got != 1 {
		t.Fatalf("pick from tie=1 = %d, want 1", got)
	}
}

func TestPlacementPickWeighsLatencyAgainstDepth(t *testing.T) {
	// A deep queue on a fast worker can still beat a shallow queue on a
	// slow one: 3 items x 1µs < 2 items x 10µs.
	loads := []WorkerLoad{
		{Queue: 2, EWMAItemNs: 10_000},
		{Queue: 1, EWMAItemNs: 10_000},
	}
	if got := PlacementPick(loads, 0); got != 1 {
		t.Fatalf("pick = %d, want shallower worker 1", got)
	}
	loads[1].EWMAItemNs = 50_000
	if got := PlacementPick(loads, 0); got != 0 {
		t.Fatalf("pick = %d, want faster worker 0 despite deeper queue", got)
	}
}

func TestPlacementPickTieBreaksRoundRobin(t *testing.T) {
	// Idle cluster: all scores equal, so the tie cursor must reproduce
	// the legacy round-robin fill order exactly.
	loads := make([]WorkerLoad, 4)
	for tie := 0; tie < 12; tie++ {
		if got := PlacementPick(loads, tie); got != tie%4 {
			t.Fatalf("idle tie=%d pick = %d, want %d", tie, got, tie%4)
		}
	}
}

func TestPlacementPickEmptyAndNegativeTie(t *testing.T) {
	if got := PlacementPick(nil, 3); got != 0 {
		t.Fatalf("empty loads pick = %d, want 0", got)
	}
	loads := make([]WorkerLoad, 3)
	if got := PlacementPick(loads, -5); got < 0 || got >= 3 {
		t.Fatalf("negative tie pick = %d out of range", got)
	}
}

func TestPlacementScoreRewindPenaltyCapped(t *testing.T) {
	l := WorkerLoad{Queue: 1000, EWMAItemNs: 1 << 40, WindowRewinds: 1000}
	if s := PlacementScore(l); s <= 0 {
		t.Fatalf("pathological load overflowed the score: %d", s)
	}
}

func TestControllerLoadPublishesAcrossGoroutines(t *testing.T) {
	c := NewController(Config{}, 16)
	c.ObserveRound(4, 4, 8000) // EWMA = 2000
	c.NoteRewind()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ewma, wins := c.Load()
		if ewma != 2000 {
			t.Errorf("published EWMA = %d, want 2000", ewma)
		}
		if wins != 1 {
			t.Errorf("published window rewinds = %d, want 1", wins)
		}
	}()
	<-done
}

func TestControllerObserveIdleCollapsesToFloor(t *testing.T) {
	c := NewController(Config{IdleRounds: 1}, 16)
	if c.AtFloor() {
		t.Fatal("fresh controller reports AtFloor")
	}
	for i := 0; i < 10 && !c.AtFloor(); i++ {
		c.ObserveIdle()
	}
	if !c.AtFloor() {
		t.Fatalf("bound %d after idle-only rounds, want floor", c.Bound())
	}
}

func TestControllerFloorPinnedFiresOncePerWindow(t *testing.T) {
	var fired []int64
	clk := int64(time.Hour)
	cfg := Config{
		Window:        time.Second,
		Clock:         func() int64 { return clk },
		OnFloorPinned: func(ns int64) { fired = append(fired, ns) },
	}
	c := NewController(cfg, 16)
	// Rewinds every 100ms pin the bound at 1 and keep the window hot.
	for i := 0; i < 25; i++ {
		c.NoteRewind()
		clk += int64(100 * time.Millisecond)
	}
	// 25 rewinds over 2.5s with a 1s window: the pin timer arms at the
	// first floor-pinned observation and fires roughly once per second.
	if len(fired) < 1 || len(fired) > 3 {
		t.Fatalf("OnFloorPinned fired %d times over 2.5s, want 1-3", len(fired))
	}
	for _, ns := range fired {
		if ns < int64(time.Second) {
			t.Fatalf("OnFloorPinned pinned duration %dns < window", ns)
		}
	}
	if got := c.Snapshot().FloorPins; got != int64(len(fired)) {
		t.Fatalf("FloorPins counter = %d, want %d", got, len(fired))
	}
	// Window drains: the pin disarms and does not fire again.
	clk += int64(3 * time.Second)
	n := len(fired)
	c.ObserveRound(0, 1, 1000)
	c.ObserveIdle()
	if len(fired) != n {
		t.Fatalf("OnFloorPinned fired after the window drained")
	}
}

func TestControllerIdleCollapseAloneDoesNotFloorPin(t *testing.T) {
	var fired int
	clk := int64(time.Hour)
	cfg := Config{
		Window:        time.Second,
		IdleRounds:    1,
		Clock:         func() int64 { return clk },
		OnFloorPinned: func(int64) { fired++ },
	}
	c := NewController(cfg, 16)
	// A healthy idle worker parks at bound 1 for many windows; that is
	// not a backoff signal.
	for i := 0; i < 50; i++ {
		c.ObserveIdle()
		clk += int64(200 * time.Millisecond)
	}
	if fired != 0 {
		t.Fatalf("OnFloorPinned fired %d times on a rewind-free idle worker", fired)
	}
}

// TestRouterRaceHammer exercises Worker from many goroutines, mirroring
// how concurrent memcache submit paths share the router (keyless traffic
// through the shared round-robin cursor included). Run with -race; the
// assertions only check range invariants.
func TestRouterRaceHammer(t *testing.T) {
	const (
		workers = 4
		shards  = 64
	)
	r := NewRouter(workers, shards)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20_000; i++ {
				shard := rng.Intn(shards + 2)
				if rng.Intn(8) == 0 {
					shard = -1
				}
				w := r.Worker(shard)
				if w < 0 || w >= workers {
					t.Errorf("Worker(%d) = %d out of range", shard, w)
					return
				}
			}
		}(int64(g + 2))
	}
	wg.Wait()
}
