package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"sdrad/internal/memcache"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
	"sdrad/internal/ycsb"
)

// kvSpec is one memcached workload's traffic mix.
type kvSpec struct {
	depth    int     // requests per blocking call: 1 is Conn.Do, more is one DoPipeline
	readFrac float64 // share of gets; the rest are sets
	dist     string  // ycsb key distribution
}

// kvValueSize is the size of every record's value.
const kvValueSize = 100

// maxAttempts bounds how often one request is resent after the server
// discarded it with its connection.
const maxAttempts = 4

var (
	storedReply = []byte("STORED\r\n")
	// kvTrap is the CVE-2011-4971 analog: a binary set whose header
	// claims a body far larger than the staging buffer.
	kvTrap = memcache.FormatBSet("atk", 64<<20, nil)
)

// kvInputs is everything the clients send, generated from the seed
// before any server exists. Record k's get and set requests, and the
// exact reply a get must return, are built once; each client's op
// stream indexes them.
type kvInputs struct {
	spec   kvSpec
	keys   [][]byte
	values [][]byte
	get    [][]byte
	set    [][]byte
	hit    [][]byte
	stream [clients][]ycsb.Op
}

func genKV(spec kvSpec, sc scale, seed int64) (*kvInputs, error) {
	r, err := ycsb.NewRunner(ycsb.Config{
		Records:        sc.records,
		ReadProportion: spec.readFrac,
		ValueSize:      kvValueSize,
		Distribution:   spec.dist,
		Seed:           seed,
	})
	if err != nil {
		return nil, fmt.Errorf("ycsb: %w", err)
	}
	in := &kvInputs{spec: spec}
	for k := range sc.records {
		key := ycsb.Key(k)
		val := ycsb.Value(k, kvValueSize)
		in.keys = append(in.keys, []byte(key))
		in.values = append(in.values, val)
		in.get = append(in.get, memcache.FormatGet(key))
		in.set = append(in.set, memcache.FormatSet(key, val, 0))
		hit := fmt.Appendf(nil, "VALUE %s 0 %d\r\n", key, kvValueSize)
		hit = append(append(hit, val...), "\r\nEND\r\n"...)
		in.hit = append(in.hit, hit)
	}
	plan := r.OpPlanner()
	rng := rand.New(rand.NewSource(seed))
	for ci := range in.stream {
		in.stream[ci] = make([]ycsb.Op, sc.streamLen)
		plan(rand.New(rand.NewSource(rng.Int63())), in.stream[ci])
	}
	return in, nil
}

// kvWorkload returns the set-up function of a memcached workload.
func kvWorkload(spec kvSpec) prepareFunc {
	return func(seed int64, sc scale) (buildFunc, error) {
		in, err := genKV(spec, sc, seed)
		if err != nil {
			return nil, err
		}
		return func(tel *telemetry.Recorder) (target, error) { return newKVTarget(in, tel) }, nil
	}
}

// kvTarget is a memcached SDRaD build with every record loaded.
type kvTarget struct {
	in    *kvInputs
	tel   *telemetry.Recorder
	srv   *memcache.Server
	conns [clients]*memcache.Conn
	// Per-client scratch, owned by that client's goroutine.
	reqs    [clients][][]byte
	replies [clients][][]byte
	pending [clients][]int
	sub     [clients][][]byte
}

func newKVTarget(in *kvInputs, tel *telemetry.Recorder) (*kvTarget, error) {
	srv, err := memcache.NewServer(memcache.Config{
		Variant:   memcache.VariantSDRaD,
		Workers:   serverWorkers,
		Telemetry: tel,
	})
	if err != nil {
		return nil, fmt.Errorf("memcache server: %w", err)
	}
	t := &kvTarget{in: in, tel: tel, srv: srv}
	for ci := range t.conns {
		t.conns[ci] = srv.NewConn()
		t.reqs[ci] = make([][]byte, in.spec.depth)
		t.replies[ci] = make([][]byte, in.spec.depth)
	}
	if err := t.preload(); err != nil {
		srv.Stop()
		return nil, err
	}
	return t, nil
}

// preload stores every record through the request path, one full
// pipeline at a time.
func (t *kvTarget) preload() error {
	const chunk = 16
	for k := 0; k < len(t.in.set); k += chunk {
		batch := t.in.set[k:min(k+chunk, len(t.in.set))]
		for i, r := range t.conns[0].DoPipeline(batch) {
			if r.Err != nil || r.Closed || !bytes.Equal(r.Resp, storedReply) {
				return fmt.Errorf("preload record %d: reply %q closed=%v err=%v", k+i, r.Resp, r.Closed, r.Err)
			}
		}
	}
	return nil
}

func (t *kvTarget) call(ci, n int, cr *clientRun) error {
	req := uint64(ci)<<40 | uint64(n)
	var opStart time.Time
	if cr.tr != nil {
		opStart = time.Now()
	}
	depth := t.in.spec.depth
	stream := t.in.stream[ci]
	reqs := t.reqs[ci]
	for i := range reqs {
		op := stream[(n*depth+i)%len(stream)]
		if op.Read {
			reqs[i] = t.in.get[op.Index]
		} else {
			reqs[i] = t.in.set[op.Index]
		}
	}
	if cr.tr != nil {
		cr.qsum += int64(t.srv.QueueDepth(t.conns[ci].WorkerIndex()))
		cr.qn++
	}
	cr.attempted += int64(depth)
	t0 := time.Now()
	t.exchange(ci, cr)
	t1 := time.Now()
	for i, resp := range t.replies[ci] {
		if resp == nil {
			continue // never completed: counted in cr.failed
		}
		op := stream[(n*depth+i)%len(stream)]
		want := storedReply
		if op.Read {
			want = t.in.hit[op.Index]
		}
		if !bytes.Equal(resp, want) {
			return fmt.Errorf("client %d call %d: %q returned %q, want %q", ci, n, reqs[i], resp, want)
		}
		cr.done++
	}
	name := spMemcacheDo
	if depth > 1 {
		name = spMemcachePipeline
	}
	cr.endCall(req, opStart, t0, t1, 0, name)
	return nil
}

// exchange sends client ci's requests and fills its replies. A request
// the server discarded with its connection (collateral of a rewind) is
// resent on a fresh connection, as a client reconnects after a close; a
// reply left nil never completed.
func (t *kvTarget) exchange(ci int, cr *clientRun) {
	reqs, replies := t.reqs[ci], t.replies[ci]
	pending := t.pending[ci][:0]
	for i := range reqs {
		replies[i] = nil
		pending = append(pending, i)
	}
	for attempt := 0; attempt < maxAttempts && len(pending) > 0; attempt++ {
		conn := t.conns[ci]
		outcome := func(i int, resp []byte, closed bool, err error) bool {
			switch {
			case closed:
				cr.discarded++
			case err != nil:
				cr.failed++
			default:
				replies[i] = resp
				return false
			}
			if attempt == 0 {
				cr.firstFail++
			}
			return closed
		}
		retry := pending[:0]
		if t.in.spec.depth == 1 {
			resp, closed, err := conn.Do(reqs[pending[0]])
			if outcome(pending[0], resp, closed, err) {
				retry = append(retry, pending[0])
			}
		} else {
			sub := t.sub[ci][:0]
			for _, i := range pending {
				sub = append(sub, reqs[i])
			}
			t.sub[ci] = sub
			for j, r := range conn.DoPipeline(sub) {
				if outcome(pending[j], r.Resp, r.Closed, r.Err) {
					retry = append(retry, pending[j])
				}
			}
		}
		if len(retry) > 0 {
			t.redial(ci)
		}
		pending = retry
	}
	cr.failed += int64(len(pending))
	t.pending[ci] = pending
}

// redial replaces client ci's closed connection with one on the same
// worker, so the load stays one client per worker. The server places
// connections round-robin, so at most serverWorkers connections are
// opened; the ones on other workers are dropped before their first
// request and hold no buffers.
func (t *kvTarget) redial(ci int) {
	home := t.conns[ci].WorkerIndex()
	for range serverWorkers {
		if t.conns[ci] = t.srv.NewConn(); t.conns[ci].WorkerIndex() == home {
			return
		}
	}
}

// trap sends one bset trap on a fresh connection and returns its round
// trip: fault, rewind, discard and the closed-connection reply. Only
// one goroutine sends traps, and innocent requests never fault, so the
// trap must add exactly one rewind.
func (t *kvTarget) trap() (int64, error) {
	before := t.srv.Rewinds()
	conn := t.srv.NewConn()
	t0 := time.Now()
	resp, closed, err := conn.Do(kvTrap)
	d := int64(time.Since(t0))
	if err != nil || !closed {
		return 0, fmt.Errorf("bset trap: reply %q closed=%v err=%v, want a closed connection", resp, closed, err)
	}
	if got := t.srv.Rewinds() - before; got != 1 {
		return 0, fmt.Errorf("bset trap: %d rewinds, want 1", got)
	}
	return d, nil
}

func (t *kvTarget) counters() counters {
	var c counters
	c.addLibrary(t.srv.Library())
	c.addMemory(t.srv.Process())
	c.rewinds = t.srv.Rewinds()
	st := t.srv.StorageStats()
	c.gets, c.hits, c.evictions = int64(st.Gets), int64(st.Hits), int64(st.Evictions)
	for _, sc := range t.srv.Storage().ContentionStats() {
		c.lockWaitNs += sc.WaitNs
	}
	if t.tel != nil {
		h := t.tel.Registry().Histogram("sdrad_memcache_batch_size", "")
		c.batchSum, c.batchN = h.Sum(), h.Count()
	}
	return c
}

func (t *kvTarget) mappedBytes() int64 { return t.srv.MappedBytes() }

// storageBatches × storageBatchLen direct storage calls are timed per
// operation kind; each batch's mean is one sample.
const (
	storageBatches  = 64
	storageBatchLen = 256
)

// timeLayers times Storage.AppendGet and Storage.Set directly on worker
// 0's thread, over client 0's key stream. Each Set writes the record's
// own value, so the data set is unchanged.
func (t *kvTarget) timeLayers(tr *tracer) (map[string]float64, error) {
	st := t.srv.Storage()
	stream := t.in.stream[0]
	var gets, sets []float64
	err := t.conns[0].Inspect(func(th *proc.Thread) error {
		c := th.CPU()
		dst := make([]byte, 0, 2*kvValueSize)
		for b := range storageBatches {
			t0 := time.Now()
			for i := range storageBatchLen {
				k := stream[(b*storageBatchLen+i)%len(stream)].Index
				var ok bool
				if dst, _, _, ok = st.AppendGet(c, t.in.keys[k], dst[:0], false); !ok {
					return fmt.Errorf("storage get %s: miss", t.in.keys[k])
				}
			}
			t1 := time.Now()
			gets = append(gets, float64(t1.Sub(t0))/storageBatchLen)
			tr.record(spStorageGet, uint64(b), -1, t0, t1)
			k := stream[(b*storageBatchLen+storageBatchLen-1)%len(stream)].Index
			if !bytes.Equal(dst, t.in.values[k]) {
				return fmt.Errorf("storage get %s: value %q", t.in.keys[k], dst)
			}
		}
		for b := range storageBatches {
			t0 := time.Now()
			for i := range storageBatchLen {
				k := stream[(b*storageBatchLen+i)%len(stream)].Index
				if err := st.Set(c, t.in.keys[k], t.in.values[k], 0); err != nil {
					return fmt.Errorf("storage set %s: %w", t.in.keys[k], err)
				}
			}
			t1 := time.Now()
			sets = append(sets, float64(t1.Sub(t0))/storageBatchLen)
			tr.record(spStorageSet, uint64(b), -1, t0, t1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"memcache.storage.get_ns": median(gets),
		"memcache.storage.set_ns": median(sets),
	}, nil
}

func (t *kvTarget) stop() error {
	crashed, cause := t.srv.Crashed()
	t.srv.Stop()
	if crashed {
		return fmt.Errorf("memcache server crashed: %v", cause)
	}
	return nil
}
