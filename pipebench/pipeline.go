package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	fcm "github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/engine"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/packet"
	"github.com/fcmsketch/fcm/internal/trace"
	"github.com/fcmsketch/fcm/internal/window"
)

// familySeed seeds the BobHash family every switch and every restore
// uses (the core package's own default seed).
const familySeed = 0xfc0fc0

// sketchConfig is the one geometry of the benchmark, the paper's: K = 8,
// two trees, {8,16,32}-bit stages, BobHash, sized by counter memory
// (1.3 MB gives w1 = 495,232).
func sketchConfig(memBytes int) core.Config {
	return core.Config{
		K:           8,
		Trees:       2,
		Widths:      []int{8, 16, 32},
		MemoryBytes: memBytes,
		Hash:        hashing.NewBobFamily(familySeed),
	}
}

// member is one switch: an engine served over loopback TCP, and the
// collector's delta client for it.
type member struct {
	eng    *engine.Engine
	srv    *collect.Server
	client *collect.Client
	last   *collect.Snapshot // newest snapshot read, kept for probes
	prev   *collect.Snapshot // the one before it
}

// pipeline is one workload's in-process deployment: switches, their
// collection servers and clients, the window ring the collector files
// into, and the trace the load is generated from.
type pipeline struct {
	cfg     core.Config
	fam     hashing.Family
	tr      *trace.Trace
	keys    [][]byte // flow ID → key bytes
	stream  []byte   // every packet's key in arrival order, back to back
	keyLen  int
	members []*member
	ring    *window.Ring
	cands   [][]byte     // heavy-hitter candidates: the trace's largest flows
	lastSk  *core.Sketch // newest filed window, kept for probes

	traceGen time.Duration
}

// newTrace generates the workload's trace: 5-tuple keys with many small
// flows, or the CAIDA-like source-IP trace.
func newTrace(kind packet.KeyKind, packets int, seed int64) (*trace.Trace, error) {
	if kind == packet.KeyFiveTuple {
		// i.i.d. flow sizes, Zipf α = 2 truncated at 256 packets: mean
		// ≈ 3.7 packets, so ~a quarter as many flows as packets.
		return trace.Generate(trace.Config{
			Model:        trace.ModelSizeZipf,
			Alpha:        2,
			TotalPackets: packets,
			AvgFlowSize:  4,
			MaxFlowSize:  256,
			Seed:         seed,
			Shuffle:      true,
			KeyKind:      packet.KeyFiveTuple,
		})
	}
	return trace.CAIDALike(packets, seed)
}

// newPipeline generates the trace and deploys members switches of
// shards shards each, plus a collector ring.
func newPipeline(kind packet.KeyKind, tracePackets int, seed int64, memBytes, members, shards int, rcfg window.Config) (*pipeline, error) {
	p := &pipeline{cfg: sketchConfig(memBytes), fam: hashing.NewBobFamily(familySeed)}
	t0 := time.Now()
	tr, err := newTrace(kind, tracePackets, seed)
	if err != nil {
		return nil, err
	}
	p.traceGen = time.Since(t0)
	p.tr = tr
	p.keys = make([][]byte, len(tr.Keys))
	for i := range tr.Keys {
		p.keys[i] = tr.Keys[i].Bytes()
	}
	// The writers read packets as one sequential byte stream, so the load
	// generator adds no cache misses of its own beside the sketch's.
	p.keyLen = kind.KeySize()
	p.stream = make([]byte, 0, len(tr.Order)*p.keyLen)
	for _, id := range tr.Order {
		p.stream = append(p.stream, p.keys[id]...)
	}
	ids := make([]int, len(tr.Sizes))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return tr.Sizes[ids[a]] > tr.Sizes[ids[b]] })
	for _, id := range ids[:min(64, len(ids))] {
		p.cands = append(p.cands, p.keys[id])
	}
	for i := 0; i < members; i++ {
		eng, err := engine.New(engine.Config{Shards: shards, Build: func() (*core.Sketch, error) { return core.New(p.cfg) }})
		if err != nil {
			p.close()
			return nil, err
		}
		srv, err := collect.NewServerConfig("127.0.0.1:0", eng, collect.ServerConfig{})
		if err != nil {
			p.close()
			return nil, err
		}
		cl, err := collect.NewClient(collect.ClientConfig{Addr: srv.Addr(), Delta: true})
		if err != nil {
			srv.Close()
			p.close()
			return nil, err
		}
		p.members = append(p.members, &member{eng: eng, srv: srv, client: cl})
	}
	p.ring = window.NewCollector(rcfg)
	return p, nil
}

// close shuts every client and server down.
func (p *pipeline) close() {
	for _, m := range p.members {
		m.client.Close()
		m.srv.Close()
	}
}

// key returns the key of the packet at cyclic trace position pos.
func (p *pipeline) key(pos uint64) []byte {
	i := int(pos%uint64(len(p.tr.Order))) * p.keyLen
	return p.stream[i : i+p.keyLen : i+p.keyLen]
}

// wireBytes is the collection response bytes every server has sent.
func (p *pipeline) wireBytes() uint64 {
	var n uint64
	for _, m := range p.members {
		st := m.srv.Stats()
		n += st.DeltaWireBytes + st.FullWireBytes
	}
	return n
}

// roundResult is what one collection round measured.
type roundResult struct {
	at       time.Duration   // round start, from the timed window's epoch
	fresh    time.Duration   // round start → lookback-1 answer returned
	query    time.Duration   // the lookback-1 query alone
	cpu      time.Duration   // the process's CPU time over fresh, less the busy threads'
	queryCPU time.Duration   // the lookback-1 query's CPU time
	gaps     []time.Duration // per member: read start → reset end
	filed    uint64          // TotalCount of the filed window
	wire     uint64          // response bytes served during the round
	merges   uint64          // coarsening merges the filing caused
}

// round is one collection round, as the reset-mode Poller and fcmagg run
// it: per member ReadSketch (then ResetSketch when reset), Restore, merge
// the members, FileWindow, then a lookback-1 heavy-hitter query.
//
// Its CPU time is the process's over the round less that of busy's
// threads, so it counts the collector, the servers and the garbage
// collection that runs meanwhile.
func (p *pipeline) round(l *lane, busy *threadSet, id uint64, reset bool, hhThreshold uint64) (roundResult, error) {
	var res roundResult
	wire0 := p.wireBytes()
	merges0 := p.ring.Stats().CoarsenMerges
	proc0, others0 := busy.othersCPU()
	start := time.Now()
	root := l.begin("bench.round", id, -1)
	var merged *core.Sketch
	for _, m := range p.members {
		readStart := time.Now()
		sp := l.begin("collect.read", id, root)
		snap, err := m.client.ReadSketch()
		l.end(sp)
		if err != nil {
			return res, fmt.Errorf("read: %w", err)
		}
		if reset {
			sp = l.begin("collect.reset", id, root)
			err := m.client.ResetSketch()
			l.end(sp)
			res.gaps = append(res.gaps, time.Since(readStart))
			if err != nil {
				return res, fmt.Errorf("reset: %w", err)
			}
		}
		m.prev, m.last = m.last, snap
		sp = l.begin("collect.restore", id, root)
		sk, err := snap.Restore(p.fam)
		l.end(sp)
		if err != nil {
			return res, err
		}
		if merged == nil {
			merged = sk
			continue
		}
		sp = l.begin("core.merge", id, root)
		err = merged.Merge(sk)
		l.end(sp)
		if err != nil {
			return res, err
		}
	}
	sp := l.begin("core.total_count", id, root)
	res.filed = merged.TotalCount(0)
	l.end(sp)
	sp = l.begin("window.file", id, root)
	err := p.ring.FileWindow(merged, start, time.Now(), res.filed)
	l.end(sp)
	if err != nil {
		return res, err
	}
	p.lastSk = merged
	q0 := time.Now()
	res.queryCPU = cpuTimed(func() {
		_, err = p.ask(l, id, root, question{kind: qHH, lb: 1, threshold: hhThreshold})
	})
	if err != nil {
		return res, err
	}
	res.query = time.Since(q0)
	res.fresh = time.Since(start)
	proc1, others1 := busy.othersCPU()
	res.cpu = (proc1 - proc0) - (others1 - others0)
	l.end(root)
	res.wire = p.wireBytes() - wire0
	res.merges = p.ring.Stats().CoarsenMerges - merges0
	return res, nil
}

// qkind is the kind of an over-time query.
type qkind int

const (
	qPoint qkind = iota
	qCard
	qHH
	qEntropy
)

var qkindNames = [...]string{"point", "cardinality", "heavy_hitters", "entropy"}

// question is one over-time query.
type question struct {
	kind      qkind
	lb        int    // lookback in windows
	flow      int    // flow ID of a point query
	threshold uint64 // heavy-hitter threshold
}

// answer is an over-time answer with the coverage it was computed over.
type answer struct {
	est  uint64
	card float64
	hh   map[string]uint64
	ent  float64
	cov  window.Coverage
}

// emWorkers is the EM parallelism of entropy queries: single-threaded,
// so one query client never takes more than one core.
const emWorkers = 1

// overTimeSpans names the span around each kind's ring query function.
var overTimeSpans = [...]string{
	"window.query_over_time",
	"window.cardinality_over_time",
	"window.heavy_hitters_over_time",
	"window.entropy_over_time",
}

// ask answers q through the ring's own over-time query functions, with a
// span around the call when l is non-nil. The fold and the core or em
// work on the folded sketch happen inside that one window call; the
// probes time them apart.
func (p *pipeline) ask(l *lane, id uint64, parent int, q question) (answer, error) {
	lb := window.LastWindows(q.lb)
	var a answer
	var err error
	sp := l.begin(overTimeSpans[q.kind], id, parent)
	switch q.kind {
	case qPoint:
		a.est, a.cov, err = p.ring.QueryOverTime(p.keys[q.flow], lb)
	case qCard:
		a.card, a.cov, err = p.ring.CardinalityOverTime(lb)
	case qHH:
		a.hh, a.cov, err = p.ring.HeavyHittersOverTime(p.cands, q.threshold, lb)
	case qEntropy:
		a.ent, a.cov, err = p.ring.EntropyOverTime(lb, &fcm.EMOptions{Workers: emWorkers})
	}
	l.end(sp)
	return a, err
}

// answerOn answers q on an already-folded sketch, as the ring's query
// functions do on their fold. The query check uses it on a serially
// ingested reference sketch.
func answerOn(sk *core.Sketch, q question, keys, cands [][]byte) (answer, error) {
	var a answer
	switch q.kind {
	case qPoint:
		a.est = sk.Estimate(keys[q.flow])
	case qCard:
		a.card = sk.Cardinality()
	case qHH:
		a.hh = make(map[string]uint64)
		for _, k := range cands {
			if est := sk.Estimate(k); est >= q.threshold {
				a.hh[string(k)] = est
			}
		}
	case qEntropy:
		res, err := em.Run(em.Config{W1: sk.LeafWidth(), Theta1: sk.StageMax(0), Workers: emWorkers}, sk.VirtualCounters())
		if err != nil {
			return a, err
		}
		a.ent = fcm.EntropyOf(res.Dist)
	}
	return a, nil
}

// show renders the part of a that answers q.
func (a answer) show(q question) string {
	switch q.kind {
	case qPoint:
		return fmt.Sprint(a.est)
	case qCard:
		return fmt.Sprintf("%.17g", a.card)
	case qHH:
		return fmt.Sprintf("%d heavy hitters", len(a.hh))
	default:
		return fmt.Sprintf("%.17g", a.ent)
	}
}

// sameAnswer reports whether two answers to q agree exactly.
func sameAnswer(q question, a, b answer) bool {
	switch q.kind {
	case qPoint:
		return a.est == b.est
	case qCard:
		return a.card == b.card
	case qHH:
		if len(a.hh) != len(b.hh) {
			return false
		}
		for k, v := range a.hh {
			if b.hh[k] != v {
				return false
			}
		}
		return true
	default:
		return a.ent == b.ent
	}
}

// stopper is a stop signal plus the goroutines that watch it.
type stopper struct {
	done chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
}

func newStopper() *stopper { return &stopper{done: make(chan struct{})} }

// goFn runs fn on a new goroutine tracked by s.
func (s *stopper) goFn(fn func() error) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := fn(); err != nil {
			s.mu.Lock()
			s.errs = append(s.errs, err)
			s.mu.Unlock()
		}
	}()
}

func (s *stopper) stopped() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// stop signals every goroutine, waits for them and returns their joined
// errors.
func (s *stopper) stop() error {
	close(s.done)
	s.wg.Wait()
	return errors.Join(s.errs...)
}

// sleepUntil sleeps until t, or until s is stopped.
func sleepUntil(s *stopper, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-s.done:
	}
}

// spinUntil busy-waits until t, or until s is stopped. The open-loop
// writer waits this way: a timer sleep between millisecond-spaced chunks
// leaves a core idle most of the time, and on a virtual machine how fast
// an idle core wakes up depends on the host, which made the lag and the
// round timings swing from run to run.
func spinUntil(s *stopper, t time.Time) {
	for time.Now().Before(t) && !s.stopped() {
	}
}

// every returns a round schedule for rounds: round k is due at
// start+(k+1)·period, counted from the first call (a round that overruns
// starts the next one late, never skips it).
func every(period time.Duration) func(s *stopper, k int) {
	var start time.Time
	return func(s *stopper, k int) {
		if k == 0 {
			start = time.Now()
		}
		sleepUntil(s, start.Add(time.Duration(k+1)*period))
	}
}

// rounds runs collection rounds, each once due(s, k) returns for it,
// until s stops. Each round is handed to done. A reference slice runs on
// the same goroutine before each round.
func (p *pipeline) rounds(s *stopper, l *lane, ph *phase, due func(s *stopper, k int), reset bool, hh uint64, first uint64, done func(roundResult)) func() error {
	return func() error {
		ref := ph.ref
		w := newRefWork()
		for k := 0; ; k++ {
			due(s, k)
			if s.stopped() {
				return nil
			}
			ref.slice(w)
			at := time.Since(ref.epoch)
			r, err := p.round(l, ph.busy, first+uint64(k), reset, hh)
			if err != nil {
				return fmt.Errorf("round %d: %w", k, err)
			}
			r.at = at
			done(r)
		}
	}
}
