package memcache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sdrad/internal/proc"
	"sdrad/internal/sched"
	"sdrad/internal/telemetry"
)

// startRouteServer builds a hardened server with a caller-chosen
// scheduler config (route/steal knobs under test).
func startRouteServer(t testing.TB, workers int, cfg sched.Config) (*Server, *telemetry.Recorder) {
	t.Helper()
	rec := telemetry.New(telemetry.Options{})
	s, err := NewServer(Config{
		Variant:    VariantSDRaD,
		Workers:    workers,
		HashPower:  10,
		CacheBytes: 4 << 20,
		Telemetry:  rec,
		Sched:      &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s, rec
}

// parkWorkerAt blocks worker idx inside a control event until released.
func parkWorkerAt(t *testing.T, s *Server, idx int) (release func()) {
	t.Helper()
	parked := make(chan struct{})
	releaseCh := make(chan struct{})
	go func() {
		_ = s.inspectOn(idx, func(*proc.Thread) error {
			close(parked)
			<-releaseCh
			return nil
		})
	}()
	<-parked
	return func() { close(releaseCh) }
}

// waitDepthAt polls until worker idx holds at least n queued events.
func waitDepthAt(t *testing.T, s *Server, idx, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth(idx) < n {
		if time.Now().After(deadline) {
			t.Fatalf("worker %d queue stuck at %d events, want %d", idx, s.QueueDepth(idx), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestRouteOffKeepsLegacyRoundRobinPlacement(t *testing.T) {
	// Without Route — scheduler off entirely, or on without the flag —
	// NewConn must walk the legacy round-robin cursor bit-identically.
	plain, _ := startTelServer(t, VariantSDRaD, 3)
	for i := 0; i < 7; i++ {
		if got := plain.NewConn().WorkerIndex(); got != i%3 {
			t.Fatalf("sched-off conn %d pinned to worker %d, want %d", i, got, i%3)
		}
	}
	schedOn, _ := startRouteServer(t, 3, sched.Config{})
	for i := 0; i < 7; i++ {
		if got := schedOn.NewConn().WorkerIndex(); got != i%3 {
			t.Fatalf("route-off conn %d pinned to worker %d, want %d", i, got, i%3)
		}
	}
	if schedOn.workers[0].stealch != nil {
		t.Fatal("steal-off worker has a steal queue")
	}
}

func TestRoutePlacementAvoidsBackloggedWorker(t *testing.T) {
	s, _ := startRouteServer(t, 2, sched.Config{Route: true})
	// Idle cluster: the scorer's tie-break reproduces round-robin.
	if a, b := s.NewConn().WorkerIndex(), s.NewConn().WorkerIndex(); a != 0 || b != 1 {
		t.Fatalf("idle placement = %d,%d, want 0,1", a, b)
	}
	// Park worker 0 and stage keyed backlog on it (identity bias: even
	// shards → worker 0).
	release := parkWorkerAt(t, s, 0)
	keys := keysForShard(t, s, 0, 3, "route-bl")
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			c := &Conn{id: -1, w: s.workers[0]}
			if _, _, err := c.Do(FormatSet(k, []byte("v"), 0)); err != nil {
				t.Errorf("staged set %q: %v", k, err)
			}
		}(k)
	}
	waitDepthAt(t, s, 0, len(keys))
	// Every new connection now lands on the calm worker 1, regardless of
	// where the tie cursor sits.
	for i := 0; i < 5; i++ {
		if got := s.NewConn().WorkerIndex(); got != 1 {
			t.Fatalf("conn %d placed on backlogged worker %d, want 1", i, got)
		}
	}
	release()
	wg.Wait()
}

func TestStealServesVictimBacklogWhileParked(t *testing.T) {
	s, _ := startRouteServer(t, 2, sched.Config{
		Route:         true,
		Steal:         true,
		IdleRounds:    1,
		StealInterval: 100 * time.Microsecond,
	})
	// Park both workers: the victim stays parked for the whole test, the
	// thief only while the backlog is staged (so the steal sizes are
	// deterministic).
	releaseVictim := parkWorkerAt(t, s, 0)
	releaseThief := parkWorkerAt(t, s, 1)

	keys := keysForShard(t, s, 0, 4, "steal-bl")
	results := make(chan error, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			c := &Conn{id: -1, w: s.workers[0]}
			resp, closed, err := c.Do(FormatSet(k, []byte("stolen-ok"), 0))
			if err == nil && (closed || string(resp) != "STORED\r\n") {
				err = fmt.Errorf("set %q: %q closed=%v", k, resp, closed)
			}
			results <- err
		}(k)
		waitDepthAt(t, s, 0, i+1)
	}
	if got := len(s.workers[0].stealch); got != len(keys) {
		t.Fatalf("staged %d steal-eligible events, want %d on stealch", got, len(keys))
	}

	// Release the thief: it collapses to the floor over idle ticks and
	// then steals — 4 pending → take 2, then 2 → take 1, then 1 pending
	// is latency, not backlog, and stays for the victim.
	releaseThief()
	for i := 0; i < len(keys)-1; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d stolen responses arrived while the victim was parked", i)
		}
	}
	if got := s.Steals(); got != 2 {
		t.Errorf("steal rounds = %d, want 2", got)
	}
	if got := s.StolenEvents(); got != 3 {
		t.Errorf("stolen events = %d, want 3", got)
	}
	// One same-shard group per round: 2 segments.
	if got := s.StealSegments(); got != 2 {
		t.Errorf("steal segments = %d, want 2", got)
	}

	// The victim still owns the last event.
	releaseVictim()
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Stolen writes committed to the shared database.
	c := s.NewConn()
	for _, k := range keys {
		val, _, ok := ParseGetValue(mustDo(t, c, FormatGet(k)))
		if !ok || string(val) != "stolen-ok" {
			t.Errorf("stolen write %q = %q %v, want committed", k, val, ok)
		}
	}
	if got := s.Rewinds(); got != 0 {
		t.Errorf("rewinds = %d during clean stealing, want 0", got)
	}
}

func TestStealFaultDiscardsOnlyStolenSegment(t *testing.T) {
	s, rec := startRouteServer(t, 2, sched.Config{
		Route:         true,
		Steal:         true,
		IdleRounds:    1,
		StealInterval: 100 * time.Microsecond,
	})
	releaseVictim := parkWorkerAt(t, s, 0)
	releaseThief := parkWorkerAt(t, s, 1)

	// Six events on the victim, staged in order: a trap and an innocent
	// on shard 0, then four innocents on shard 2 (both shards biased to
	// worker 0). The thief takes half: {trap, innocentA, innocentB0} —
	// two shard segments, the fault in the first.
	trapKey := keysForShard(t, s, 0, 1, "atk")[0]
	innocentA := keysForShard(t, s, 0, 1, "innoc-a")[0]
	bKeys := keysForShard(t, s, 2, 4, "innoc-b")

	type outcome struct {
		key    string
		resp   []byte
		closed bool
		err    error
	}
	outcomes := make(chan outcome, 6)
	stage := func(i int, key string, req []byte) {
		go func() {
			c := &Conn{id: -1, w: s.workers[0]}
			resp, closed, err := c.Do(req)
			outcomes <- outcome{key: key, resp: resp, closed: closed, err: err}
		}()
		waitDepthAt(t, s, 0, i+1)
	}
	stage(0, trapKey, FormatBSet(trapKey, 16<<20, []byte("payload")))
	stage(1, innocentA, FormatSet(innocentA, []byte("discarded"), 0))
	for i, k := range bKeys {
		stage(2+i, k, FormatSet(k, []byte("landed"), 0))
	}

	rewinds0 := s.Rewinds()
	releaseThief()

	// Three stolen outcomes arrive while the victim is parked: the trap
	// and innocentA closed by the rewind, bKeys[0] committed.
	got := map[string]outcome{}
	for i := 0; i < 3; i++ {
		select {
		case o := <-outcomes:
			got[o.key] = o
		case <-time.After(5 * time.Second):
			t.Fatalf("stolen outcome %d never arrived", i)
		}
	}
	if o, ok := got[trapKey]; !ok || !o.closed {
		t.Fatalf("trap outcome = %+v, want closed by rewind", o)
	}
	if o, ok := got[innocentA]; !ok || !o.closed {
		t.Fatalf("same-segment innocent outcome = %+v, want closed with its segment", o)
	}
	if o, ok := got[bKeys[0]]; !ok || o.closed || string(o.resp) != "STORED\r\n" {
		t.Fatalf("other-segment stolen outcome = %+v, want committed", o)
	}
	// Exactly one rewind, one forensics report; the thief's window is
	// hot, so it stops stealing — the remaining backlog belongs to the
	// victim.
	if got := s.Rewinds() - rewinds0; got != 1 {
		t.Errorf("rewinds = %d, want 1 (only the stolen segment)", got)
	}
	if reports := rec.Forensics().Reports(); len(reports) != 1 {
		t.Fatalf("forensics reports = %d, want exactly 1", len(reports))
	}
	if got := s.Steals(); got != 1 {
		t.Errorf("steal rounds = %d, want 1 (hot window stops the thief)", got)
	}
	if snap := s.SchedSnapshots()[1]; snap.WindowRewinds != 1 {
		t.Errorf("thief window rewinds = %d, want 1", snap.WindowRewinds)
	}

	// The victim's remaining batches commit untouched.
	releaseVictim()
	for i := 0; i < 3; i++ {
		select {
		case o := <-outcomes:
			if o.err != nil || o.closed || string(o.resp) != "STORED\r\n" {
				t.Fatalf("victim outcome %+v, want committed", o)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("victim outcome never arrived")
		}
	}
	c := s.NewConn()
	if _, _, ok := ParseGetValue(mustDo(t, c, FormatGet(innocentA))); ok {
		t.Error("write from the faulting stolen segment leaked into the database")
	}
	for _, k := range bKeys {
		val, _, ok := ParseGetValue(mustDo(t, c, FormatGet(k)))
		if !ok || string(val) != "landed" {
			t.Errorf("innocent write %q = %q %v, want committed", k, val, ok)
		}
	}
}

// TestStealModeSpawnIsRaceFree creates and stops steal-mode servers in a
// loop. A worker at the AIMD floor scans its siblings from its own
// goroutine right away (MaxBatch 1 starts every controller there), so a
// worker spawned while later siblings were still being appended to the
// server's worker list raced that append. Run with -race.
func TestStealModeSpawnIsRaceFree(t *testing.T) {
	for i := 0; i < 36; i++ {
		s, err := NewServer(Config{
			Variant:    VariantVanilla,
			Workers:    8,
			HashPower:  10,
			CacheBytes: 1 << 20,
			MaxBatch:   1,
			Sched:      &sched.Config{Steal: true, StealInterval: 50 * time.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := mustDo(t, s.NewConn(), FormatGet("k")); string(got) != "END\r\n" {
			t.Fatalf("iteration %d: get = %q", i, got)
		}
		s.Stop()
	}
}
