package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/engine"
	"github.com/fcmsketch/fcm/internal/exact"
	"github.com/fcmsketch/fcm/internal/packet"
	"github.com/fcmsketch/fcm/internal/window"
)

// sizes are the workload dimensions. paperSizes is what the benchmark
// measures; the tests run the same code on tinySizes.
type sizes struct {
	MemoryBytes    int           // sketch counter budget
	IngestTrace    int           // packets in the ingest 5-tuple trace
	CAIDATrace     int           // packets in the live/query source-IP trace
	Chunk          int           // packets a writer hands over per span
	LiveRate       float64       // live's open-loop offered rate, packets/s
	IngestRound    uint64        // ingest: packets written between rounds
	LivePeriod     time.Duration // collection round periods
	QueryPeriod    time.Duration
	PrefillWindows int           // windows in the query ring before the run
	WindowPackets  int           // packets per member per query-workload window
	EntropyEvery   int           // count queries between two EM entropy queries
	Setups         int           // least set-ups per run; setup_s is their median
	SetupTime      time.Duration // least time spent on them
	Reps           int           // repetitions of each probe
}

var paperSizes = sizes{
	MemoryBytes:    1_300_000,
	IngestTrace:    1 << 20,
	CAIDATrace:     1 << 18,
	Chunk:          4096,
	LiveRate:       4e6,
	IngestRound:    3_500_000, // about 220 ms at the writer's rate
	LivePeriod:     100 * time.Millisecond,
	QueryPeriod:    250 * time.Millisecond,
	PrefillWindows: 256,
	WindowPackets:  8 << 10,
	EntropyEvery:   60,
	Setups:         5,
	SetupTime:      3 * time.Second,
	Reps:           5,
}

// options are one run's arguments.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	sz      sizes
	out     string // directory for the span dump; "" writes none
}

// lookbacks are the query workload's lookbacks, in windows.
var lookbacks = []int{1, 4, 16, 64, 256}

// entropyLookbacks are the lookbacks of its EM entropy queries.
var entropyLookbacks = []int{1, 16}

// ingestWriters is the ingest workload's writer goroutines, one per
// shard. One writer saturates one core and leaves the other to the
// collector, the servers and the garbage collector, so the rounds are
// not time-sliced against writers.
const ingestWriters = 1

// maxSetups caps the set-ups of one run.
const maxSetups = 25

// setupStats are the medians over a run's set-ups.
type setupStats struct {
	n     int
	cpuS  float64 // the process's CPU time
	wallS float64
	genS  float64 // trace generation, wall clock
}

// setupN builds a pipeline at least sz.Setups times, and more while less
// than sz.SetupTime has passed (cheap set-ups are the noisiest), and
// keeps the last one. Set-up time is CPU time, which leaves out time the
// process waits descheduled; nothing but the set-up runs meanwhile.
func setupN(sz sizes, build func() (*pipeline, error)) (*pipeline, setupStats, error) {
	var cpu, wall, gen []float64
	var p *pipeline
	start := time.Now()
	for i := 0; i < sz.Setups || (time.Since(start) < sz.SetupTime && i < maxSetups); i++ {
		if p != nil {
			p.close()
		}
		runtime.GC()
		t0, c0 := time.Now(), processClock.now()
		q, err := build()
		if err != nil {
			return nil, setupStats{}, fmt.Errorf("setup: %w", err)
		}
		cpu = append(cpu, (processClock.now() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
		gen = append(gen, q.traceGen.Seconds())
		p = q
	}
	runtime.GC()
	return p, setupStats{len(cpu), medianOf(cpu), medianOf(wall), medianOf(gen)}, nil
}

// phase is what one timed window measured, common to every workload.
type phase struct {
	elapsed  time.Duration
	packets  uint64 // packets written during the timed window
	rounds   []roundResult
	chunks   *chunkLog  // the writer's ingest, chunk by chunk
	ref      *refLog    // reference slices on the collector's CPU
	busyRef  *refLog    // reference slices on the busy CPU
	busy     *threadSet // threads busy beside the collector
	heapPeak float64
	rec      *recorder
	probes   map[string]float64 // snapshot-under-ingest probe, traced only
}

// mpps is the wall-clock ingest rate over the timed window.
func (ph *phase) mpps() float64 {
	return float64(ph.packets) / ph.elapsed.Seconds() / 1e6
}

// rateRef is the writer's ingest rate in kilopackets per ref of CPU.
func (ph *phase) rateRef() float64 {
	v, _ := ph.chunks.rate()
	return v / 1e3
}

// freshRef is the median round CPU time in refs.
func (ph *phase) freshRef() float64 {
	fresh := make([]timing, len(ph.rounds))
	for i, r := range ph.rounds {
		fresh[i] = timing{r.at, r.cpu}
	}
	return medianOf(ph.ref.inRef(fresh))
}

func (ph *phase) freshMs() summary {
	v := make([]float64, len(ph.rounds))
	for i, r := range ph.rounds {
		v[i] = ms(r.fresh)
	}
	return summarize(v)
}

func (ph *phase) wireKiB() float64 {
	var n uint64
	for _, r := range ph.rounds {
		n += r.wire
	}
	if len(ph.rounds) == 0 {
		return 0
	}
	return float64(n) / float64(len(ph.rounds)) / 1024
}

// counter is the load generator's packet count, published after every
// chunk so the timed window can read it at its deadline.
type counter struct{ n atomic.Uint64 }

// timed runs the goroutines start launches for dur, then stops them:
// first the collector and query side, then, after the optional
// under-ingest probe (traced only), the writers.
func timed(dur time.Duration, traced bool, sent *counter, start func(rec *recorder, rounds, writers *stopper, ph *phase), probe func(ph *phase)) (*phase, error) {
	ph := &phase{}
	if traced {
		ph.rec = newRecorder()
	}
	rounds, writers := newStopper(), newStopper()
	heap := startHeapSampler(10 * time.Millisecond)
	n0 := sent.n.Load()
	t0 := time.Now()
	ph.ref, ph.busyRef, ph.busy = newRefLog(t0), newRefLog(t0), &threadSet{}
	// The writers run on the busy CPU; the query workload, whose
	// collector feeds its windows itself, moves the chunks' side.
	ph.chunks = &chunkLog{ref: ph.busyRef}
	start(ph.rec, rounds, writers, ph)
	time.Sleep(dur)
	ph.packets = sent.n.Load() - n0
	ph.elapsed = time.Since(t0)
	err := rounds.stop()
	if traced && probe != nil && err == nil {
		probe(ph)
	}
	if werr := writers.stop(); err == nil {
		err = werr
	}
	ph.heapPeak = heap.stopHeap()
	ph.ref.seal()
	ph.busyRef.seal()
	return ph, err
}

// run executes a workload: n set-ups, then the timed window (traced runs
// time an untraced and a traced half), then the correctness checks and,
// when traced, the probes.
func run(name string, o options) (*result, error) {
	switch name {
	case "ingest":
		return runIngest(o)
	case "live":
		return runLive(o)
	case "query":
		return runQuery(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest, live or query)", name)
}

// halves returns the timed windows of a run: the whole run untraced, or
// an untraced and a traced half.
func halves(o options) []bool {
	if o.traced {
		return []bool{false, true}
	}
	return []bool{false}
}

func phaseDur(o options) time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		d /= 2
	}
	return d
}

// ---------------------------------------------------------------------
// ingest: one switch, closed-loop max-rate writers, cumulative rounds.
// ---------------------------------------------------------------------

func runIngest(o options) (*result, error) {
	sz := o.sz
	p, su, err := setupN(sz, func() (*pipeline, error) {
		return newPipeline(packet.KeyFiveTuple, sz.IngestTrace, o.seed, sz.MemoryBytes, 1, ingestWriters, window.Config{})
	})
	if err != nil {
		return nil, err
	}
	defer p.close()
	var sent counter
	var cursor uint64
	m := p.members[0]
	const hh = 1000
	var phases []*phase
	var roundID uint64
	for _, traced := range halves(o) {
		ph, err := timed(phaseDur(o), traced, &sent, func(rec *recorder, rounds, writers *stopper, ph *phase) {
			l := rec.lane()
			writers.goFn(func() error {
				clk := ph.busy.lockThread()
				b := m.eng.NewBatcher(256, 1)
				w := newRefWork()
				lastRef := time.Time{}
				for !writers.stopped() {
					if time.Since(lastRef) >= refEvery {
						ph.busyRef.slice(w)
						lastRef = time.Now()
					}
					at, c0 := time.Since(ph.ref.epoch), clk.now()
					sp := l.begin("engine.batch", 0, -1)
					feed(p, b, cursor, uint64(sz.Chunk))
					l.end(sp)
					ph.chunks.add(at, sz.Chunk, clk.now()-c0)
					cursor += uint64(sz.Chunk)
					sent.n.Add(uint64(sz.Chunk))
				}
				return nil
			})
			// A round is due every sz.IngestRound packets, not every so many
			// milliseconds, so a window holds the same packets however fast
			// the host runs the writer that minute. It is no whole number
			// of trace passes: windows of whole passes would hold the same
			// counts, and the deltas between them would shrink to nothing.
			base := sent.n.Load()
			due := func(s *stopper, k int) {
				for sent.n.Load()-base < uint64(k+1)*sz.IngestRound && !s.stopped() {
					time.Sleep(time.Millisecond)
				}
			}
			rounds.goFn(p.rounds(rounds, rec.lane(), ph, due, true, hh, roundID, func(r roundResult) {
				ph.rounds = append(ph.rounds, r)
			}))
		}, func(ph *phase) { ph.probes = snapshotProbe(p, sz.Reps) })
		if err != nil {
			return nil, err
		}
		roundID += uint64(len(ph.rounds))
		phases = append(phases, ph)
	}

	res := newResult()
	led := ledger{Sent: cursor}
	for _, ph := range phases {
		for _, r := range ph.rounds {
			led.Filed += r.filed
		}
	}
	ops, failed := finalReads(p, res, &led)

	// Check: with the collector stopped, an exact segment of two and a
	// third passes of the trace, ingested through the same engine path,
	// reads back bit-identical to a serial ingest of those packets.
	if err := m.client.ResetSketch(); err != nil {
		return nil, fmt.Errorf("check reset: %w", err)
	}
	L := uint64(len(p.tr.Order))
	n := 2*L + L/3
	b := m.eng.NewBatcher(256, 1)
	feed(p, b, cursor, n)
	snap, err := m.client.ReadSketch()
	if err != nil {
		return nil, fmt.Errorf("check read: %w", err)
	}
	got, err := snap.Restore(p.fam)
	if err != nil {
		return nil, err
	}
	ref, err := replay(p, cursor, cursor+n)
	if err != nil {
		return nil, err
	}
	if d := got.FirstRegisterDiff(ref); d != "" {
		res.fail("switch registers differ from serial ingest of the packets sent: %s", d)
	}
	var missing uint64
	for t := 0; t < got.NumTrees(); t++ {
		if c := got.TotalCount(t); c != n {
			res.fail("tree %d TotalCount %d, packets sent %d", t, c, n)
			missing = max(missing, absDiff(c, n))
		}
	}
	res.attempted, res.failed = n+ops, missing+failed

	un := phases[0]
	res.e2e(un, su)
	res.row("checked_packets", "count", float64(n), "bit-identical to serial ingest")
	res.row("lost_pct", "%", led.LostPct(), fmt.Sprintf("read→reset loss at max rate: %d of %d packets counted by no window", led.Lost(), led.Sent))
	if o.traced {
		tr := phases[1]
		overhead := 100 * (un.rateRef()/tr.rateRef() - 1)
		lp := &layerProbe{p: p, reps: sz.Reps, sz: sz}
		if err := res.layers(lp, tr, su.genS, overhead); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// feed hands the n packets at cyclic trace positions [from, from+n) to
// the batcher and flushes it.
func feed(p *pipeline, b *engine.Batcher, from, n uint64) {
	for pos := from; pos < from+n; pos++ {
		b.Add(p.key(pos))
	}
	b.Flush()
}

// finalReads reads every switch once more after the writers stopped:
// the delta read must equal the engine's own snapshot, and what it holds
// is the ledger's residual. It returns the reads attempted and failed,
// counting a double count in the ledger as one more failure.
func finalReads(p *pipeline, res *result, led *ledger) (ops, failed uint64) {
	for i, m := range p.members {
		ops++
		snap, err := m.client.ReadSketch()
		if err == nil {
			var got *core.Sketch
			if got, err = snap.Restore(p.fam); err == nil {
				want, _ := m.eng.Snapshot()
				if d := got.FirstRegisterDiff(want); d != "" {
					err = fmt.Errorf("differs from the engine snapshot: %s", d)
				}
				led.Residual += got.TotalCount(0)
			}
		}
		if err != nil {
			failed++
			res.fail("member %d final delta read: %v", i, err)
		}
	}
	if d := led.Double(); d > 0 {
		failed++
		res.fail("%d packets counted twice (sent %d, filed %d, resident %d)", d, led.Sent, led.Filed, led.Residual)
	}
	return ops, failed
}

// ---------------------------------------------------------------------
// live: two switches, one open-loop writer, reset-mode rounds.
// ---------------------------------------------------------------------

func runLive(o options) (*result, error) {
	sz := o.sz
	p, su, err := setupN(sz, func() (*pipeline, error) {
		return newPipeline(packet.KeySrcIP, sz.CAIDATrace, o.seed, sz.MemoryBytes, 2, 1,
			window.Config{BucketDuration: sz.LivePeriod})
	})
	if err != nil {
		return nil, err
	}
	defer p.close()
	interval := time.Duration(float64(sz.Chunk) / sz.LiveRate * float64(time.Second))
	hh := uint64(0.0005 * sz.LiveRate * sz.LivePeriod.Seconds())
	var sent counter
	var cursor uint64
	var led ledger
	var phases []*phase
	var lagsByPhase [][]float64
	var roundID uint64
	attempted := uint64(0)
	for _, traced := range halves(o) {
		var lags []float64
		ph, err := timed(phaseDur(o), traced, &sent, func(rec *recorder, rounds, writers *stopper, ph *phase) {
			l := rec.lane()
			writers.goFn(func() error {
				batchers := make([]*engine.Batcher, len(p.members))
				for i, m := range p.members {
					batchers[i] = m.eng.NewBatcher(256, 1)
				}
				clk := ph.busy.lockThread()
				w := newRefWork()
				lastRef := time.Time{}
				sched := schedule{start: time.Now(), interval: interval}
				for i := 0; ; i++ {
					due := sched.due(i)
					// Reference slices go into the writer's slack, so they
					// do not push chunks behind their schedule.
					if time.Since(lastRef) >= refEvery && time.Until(due) > interval/2 {
						ph.busyRef.slice(w)
						lastRef = time.Now()
					}
					spinUntil(writers, due)
					if writers.stopped() {
						return nil
					}
					t0 := time.Now()
					lags = append(lags, ms(lag(due, t0)))
					b := batchers[i%len(batchers)]
					c0 := clk.now()
					sp := l.begin("engine.batch", 0, -1)
					feed(p, b, cursor, uint64(sz.Chunk))
					l.end(sp)
					ph.chunks.add(t0.Sub(ph.ref.epoch), sz.Chunk, clk.now()-c0)
					cursor += uint64(sz.Chunk)
					sent.n.Add(uint64(sz.Chunk))
				}
			})
			rounds.goFn(p.rounds(rounds, rec.lane(), ph, every(sz.LivePeriod), true, hh, roundID, func(r roundResult) {
				ph.rounds = append(ph.rounds, r)
			}))
		}, func(ph *phase) { ph.probes = snapshotProbe(p, sz.Reps) })
		if err != nil {
			return nil, err
		}
		for _, r := range ph.rounds {
			led.Filed += r.filed
		}
		attempted += uint64(len(ph.rounds)) * uint64(2*len(p.members)+1)
		roundID += uint64(len(ph.rounds))
		phases = append(phases, ph)
		lagsByPhase = append(lagsByPhase, lags)
	}
	led.Sent = cursor

	// Check: with the writer stopped, a final delta read of each switch
	// equals the engine's own snapshot, and no packet was counted twice.
	res := newResult()
	ops, failed := finalReads(p, res, &led)
	res.attempted, res.failed = attempted+ops, failed

	un := phases[0]
	res.e2e(un, su)
	lag := summarize(lagsByPhase[0])
	fresh := un.freshMs()
	res.tailRow("gen_lag", lag, "open-loop writer lag behind its schedule")
	res.tailRow("fresh", fresh, "round start → lookback-1 answer")
	res.row("lost_pct", "%", led.LostPct(), fmt.Sprintf("read→reset loss: %d of %d packets counted by no window", led.Lost(), led.Sent))
	res.row("offered_mpps", "Mpkt/s", sz.LiveRate/1e6, "fixed open-loop rate")
	if o.traced {
		tr := phases[1]
		overhead := 100 * (tr.freshRef()/un.freshRef() - 1)
		lp := &layerProbe{p: p, reps: sz.Reps, sz: sz}
		if err := res.layers(lp, tr, su.genS, overhead); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------
// query: a prefilled ring, a closed-loop query client, one new window
// per period.
// ---------------------------------------------------------------------

// winRange is the packets of one filed window: the cyclic trace
// positions [start, start+n).
type winRange struct{ start, n uint64 }

func runQuery(o options) (*result, error) {
	sz := o.sz
	var wins []winRange
	var cursor uint64
	p, su, err := setupN(sz, func() (*pipeline, error) {
		p, err := newPipeline(packet.KeySrcIP, sz.CAIDATrace, o.seed, sz.MemoryBytes, 2, 1,
			window.Config{BucketDuration: sz.QueryPeriod})
		if err != nil {
			return nil, err
		}
		wins, cursor = wins[:0], 0
		if err := prefill(p, sz, &wins, &cursor); err != nil {
			p.close()
			return nil, err
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	defer p.close()
	perWindow := uint64(2 * sz.WindowPackets)
	hhFor := func(lb int) uint64 { return uint64(0.0005 * float64(perWindow) * float64(lb)) }

	var sent counter
	rng := rand.New(rand.NewSource(o.seed))
	var phases []*phase
	type qsample struct {
		q question
		a answer
	}
	var samples []qsample
	sampled := make(map[[2]int]bool)
	var qLat, eLat [][]float64
	var qBlocks [][]timing
	var qCount []int
	var qErrs uint64
	var roundID, queryID uint64
	attempted := uint64(0)
	for _, traced := range halves(o) {
		var lat, elat []float64
		var blocks []timing // each whole block's start and mean answer CPU time
		n := 0
		ph, err := timed(phaseDur(o), traced, &sent, func(rec *recorder, rounds, writers *stopper, ph *phase) {
			cl := rec.lane()
			first := roundID
			ph.chunks.ref = ph.ref
			rounds.goFn(func() error {
				rw := newRefWork()
				start := time.Now()
				for k := 0; ; k++ {
					// This period's traffic reaches both switches, then the
					// round at the period's end collects it.
					w := winRange{start: cursor, n: perWindow}
					for _, m := range p.members {
						b := m.eng.NewBatcher(256, 1)
						for off := uint64(0); off < uint64(sz.WindowPackets); off += uint64(sz.Chunk) {
							n := min(uint64(sz.Chunk), uint64(sz.WindowPackets)-off)
							at := time.Since(ph.ref.epoch)
							d := cpuTimed(func() {
								sp := cl.begin("engine.batch", 0, -1)
								feed(p, b, cursor+off, n)
								cl.end(sp)
							})
							ph.chunks.add(at, int(n), d)
						}
						cursor += uint64(sz.WindowPackets)
					}
					sent.n.Add(perWindow)
					sleepUntil(rounds, start.Add(time.Duration(k+1)*sz.QueryPeriod))
					// After a stop the fed window is still collected, so every
					// fed packet lands in exactly one filed window.
					last := rounds.stopped()
					ph.ref.slice(rw)
					at := time.Since(ph.ref.epoch)
					r, err := p.round(cl, ph.busy, first+uint64(k), true, hhFor(1))
					if err != nil {
						return fmt.Errorf("round: %w", err)
					}
					r.at = at
					wins = append(wins, w)
					ph.rounds = append(ph.rounds, r)
					if last {
						return nil
					}
				}
			})
			ql := rec.lane()
			rounds.goFn(func() error {
				clk := ph.busy.lockThread()
				rw := newRefWork()
				var block []question
				var cur timing // the current block's start and answer CPU time
				answered := 0
				for !rounds.stopped() {
					var q question
					if n%(sz.EntropyEvery+1) == sz.EntropyEvery {
						q = question{kind: qEntropy, lb: entropyLookbacks[(n/(sz.EntropyEvery+1))%len(entropyLookbacks)]}
					} else {
						if len(block) == 0 {
							if answered == blockLen {
								blocks = append(blocks, timing{cur.at, cur.d / blockLen})
							}
							ph.busyRef.slice(rw)
							block, cur, answered = queryBlock(rng), timing{at: time.Since(ph.ref.epoch)}, 0
						}
						q, block = block[0], block[1:]
					}
					q.flow = int(p.tr.Order[rng.Intn(len(p.tr.Order))])
					q.threshold = hhFor(q.lb)
					t0, c0 := time.Now(), clk.now()
					a, err := p.ask(ql, queryID, -1, q)
					cpu := clk.now() - c0
					d := ms(time.Since(t0))
					queryID++
					n++
					if err != nil {
						qErrs++
						continue
					}
					if q.kind == qEntropy {
						elat = append(elat, d)
					} else {
						lat = append(lat, d)
						cur.d += cpu
						answered++
					}
					key := [2]int{int(q.kind), q.lb}
					if !sampled[key] || (n%97 == 0 && len(samples) < 24) {
						sampled[key] = true
						samples = append(samples, qsample{q, a})
					}
				}
				return nil
			})
		}, nil)
		if err != nil {
			return nil, err
		}
		roundID += uint64(len(ph.rounds))
		attempted += uint64(n + len(ph.rounds))
		phases = append(phases, ph)
		qLat, eLat, qCount = append(qLat, lat), append(eLat, elat), append(qCount, n)
		qBlocks = append(qBlocks, blocks)
	}

	// Check: sampled answers equal the same query on a serial re-ingest of
	// the covered windows' packets; no point estimate is below the exact
	// count.
	res := newResult()
	res.attempted = attempted
	res.failed = qErrs
	if qErrs > 0 {
		res.fail("%d queries errored", qErrs)
	}
	refs := make(map[[2]uint64]*core.Sketch)
	for _, s := range samples {
		c := s.a.cov
		if c.FirstGeneration == 0 || int(c.LastGeneration) > len(wins) {
			res.failed++
			res.fail("%s lb%d: coverage %d..%d outside the %d filed windows", qkindNames[s.q.kind], s.q.lb, c.FirstGeneration, c.LastGeneration, len(wins))
			continue
		}
		lo, hi := wins[c.FirstGeneration-1], wins[c.LastGeneration-1]
		span := [2]uint64{lo.start, hi.start + hi.n}
		ref := refs[span]
		if ref == nil {
			if ref, err = replay(p, span[0], span[1]); err != nil {
				return nil, err
			}
			refs[span] = ref
		}
		want, err := answerOn(ref, s.q, p.keys, p.cands)
		if err != nil {
			return nil, err
		}
		if !sameAnswer(s.q, s.a, want) {
			res.failed++
			res.fail("%s lb%d over windows %d..%d differs from serial re-ingest: %s, want %s", qkindNames[s.q.kind], s.q.lb, c.FirstGeneration, c.LastGeneration, s.a.show(s.q), want.show(s.q))
		}
		if s.q.kind == qPoint {
			ex := exact.New()
			for pos := span[0]; pos < span[1]; pos++ {
				if int(p.tr.Order[pos%uint64(len(p.tr.Order))]) == s.q.flow {
					ex.UpdateKey(p.tr.Keys[s.q.flow], 1)
				}
			}
			if truth := ex.Count(p.tr.Keys[s.q.flow]); s.a.est < truth {
				res.failed++
				res.fail("point estimate %d below the exact count %d", s.a.est, truth)
			}
		}
	}
	res.row("checked_answers", "count", float64(len(samples)), "sampled answers re-derived by serial re-ingest")

	un := phases[0]
	res.e2eQuery(un, su, un.busyRef.inRef(qBlocks[0]), summarize(qLat[0]),
		fmt.Sprintf("CPU: median over %d whole blocks of the block's mean count/cardinality/HH answer", len(qBlocks[0])))
	q := summarize(qLat[0])
	e := summarize(eLat[0])
	res.tailRow("query", q, "count/cardinality/HH answers")
	res.row("query_qps", "1/s", float64(qCount[0])/un.elapsed.Seconds(), "closed loop, one client")
	if e.N > 0 {
		res.row("entropy_p50_ms", "ms", e.P50, fmt.Sprintf("EM entropy answers (Workers %d), n=%d", emWorkers, e.N))
	}
	if o.traced {
		tr := phases[1]
		overhead := 100 * (medianOf(tr.busyRef.inRef(qBlocks[1]))/medianOf(un.busyRef.inRef(qBlocks[0])) - 1)
		lp := &layerProbe{p: p, reps: sz.Reps, sz: sz}
		if err := res.layers(lp, tr, su.genS, overhead); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// queryBlock is one block of the query mix: every count query kind at
// every lookback once, in a seeded order. Whole blocks keep the mix's
// composition the same for every seed.
const blockLen = 3 * 5 // query kinds × lookbacks

func queryBlock(rng *rand.Rand) []question {
	var b []question
	for _, k := range []qkind{qPoint, qCard, qHH} {
		for _, lb := range lookbacks {
			b = append(b, question{kind: k, lb: lb})
		}
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// prefill files sz.PrefillWindows windows into the ring, each the exact
// merge of two members' windows of sz.WindowPackets packets, taking
// consecutive packets of the cyclic trace from *cursor.
func prefill(p *pipeline, sz sizes, wins *[]winRange, cursor *uint64) error {
	t := time.Now().Add(-time.Duration(sz.PrefillWindows) * sz.QueryPeriod)
	n := uint64(sz.WindowPackets)
	for g := 0; g < sz.PrefillWindows; g++ {
		a, err := replay(p, *cursor, *cursor+n)
		if err != nil {
			return err
		}
		b, err := replay(p, *cursor+n, *cursor+2*n)
		if err != nil {
			return err
		}
		if err := a.Merge(b); err != nil {
			return err
		}
		end := t.Add(sz.QueryPeriod)
		if err := p.ring.FileWindow(a, t, end, a.TotalCount(0)); err != nil {
			return err
		}
		*wins = append(*wins, winRange{start: *cursor, n: 2 * n})
		*cursor += 2 * n
		t = end
	}
	return nil
}

// replay ingests the cyclic trace positions [from, to) into a new sketch,
// packet by packet in trace order.
func replay(p *pipeline, from, to uint64) (*core.Sketch, error) {
	sk, err := core.New(p.cfg)
	if err != nil {
		return nil, err
	}
	batch := make([][]byte, 0, 256)
	for pos := from; pos < to; pos++ {
		batch = append(batch, p.key(pos))
		if len(batch) == cap(batch) {
			sk.UpdateBatch(batch, 1)
			batch = batch[:0]
		}
	}
	sk.UpdateBatch(batch, 1)
	return sk, nil
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
