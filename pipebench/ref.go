package main

import (
	"encoding/binary"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The benchmark runs on a share of a machine that other tenants load: a
// thread gets descheduled, and the same loop runs up to 1.5× faster or
// slower from one minute to the next. So the timings of the JSON report
// are CPU time (cpuclock_linux.go), which leaves out time descheduled,
// expressed in reference slices ("ref"): the CPU time of a fixed piece of
// benchmark-owned work of the pipeline's kind, run on the goroutines that
// do the measured work, in between it, and logged per side of the
// placement (below), since the two CPUs of a shared host need not run at
// one speed. A change to the program moves the ratio; a slower
// host stretches both sides. The printed table gives the wall-clock
// figures beside them.
//
// A slice hashes 13-byte keys read in order from a 16 MiB stream and
// increments two counters each in a sketch-sized table. A second kind of
// slice, streaming a 16 MiB source into a 1 MiB destination like a fold,
// tracked the rounds and queries worse than this one did, on every
// workload, and was dropped.

const (
	refTableBytes = 1_300_000 // a sketch-sized counter table
	refKeyLen     = 13        // 5-tuple-sized keys
	refKeys       = 1 << 15   // keys per slice
	refKeyBytes   = 16 << 20  // the shared key stream

	refBucket = 100 * time.Millisecond // resolution of the ref unit
	refWindow = 10                     // ± buckets the unit's median spans
	refEvery  = 50 * time.Millisecond  // a writer's slice spacing
)

// refKeyStream is the read-only key stream every slice reads.
var refKeyStream struct {
	once sync.Once
	b    []byte
}

// refWork is one goroutine's reference work: its own table, so no two
// goroutines write the same cache lines.
type refWork struct {
	tab []uint8
	pos int
}

func newRefWork() *refWork {
	refKeyStream.once.Do(func() {
		x := uint64(0x9e3779b97f4a7c15)
		refKeyStream.b = make([]byte, refKeyBytes)
		for i := 0; i < refKeyBytes; i += 8 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			binary.LittleEndian.PutUint64(refKeyStream.b[i:], x)
		}
	})
	w := &refWork{tab: make([]uint8, refTableBytes)}
	w.run() // fault the pages in
	return w
}

// run does one slice of reference work.
func (w *refWork) run() {
	keys, tab, n := refKeyStream.b, w.tab, uint64(len(w.tab))
	pos := w.pos
	for i := 0; i < refKeys; i++ {
		if pos+refKeyLen > len(keys) {
			pos = 0
		}
		k := keys[pos : pos+refKeyLen]
		h := binary.LittleEndian.Uint64(k)*0x9e3779b97f4a7c15 ^ binary.LittleEndian.Uint64(k[refKeyLen-8:])
		h ^= h >> 29
		tab[(h&0xffffffff)*n>>32]++
		tab[(h>>32)*n>>32]++
		pos += refKeyLen
	}
	w.pos = pos
}

// refLog collects the reference slices run on one side of the placement
// (the busy CPU or the collector's) during one timed window, and turns
// them into the ref unit at any moment of it.
type refLog struct {
	epoch time.Time
	mu    sync.Mutex
	at    []time.Duration // slice start, from epoch
	dur   []time.Duration
	units []time.Duration // per bucket, filled by seal
}

func newRefLog(epoch time.Time) *refLog { return &refLog{epoch: epoch} }

// slice runs one reference slice on w and logs its CPU time.
func (r *refLog) slice(w *refWork) {
	t0 := time.Now()
	d := cpuTimed(w.run)
	r.mu.Lock()
	r.at = append(r.at, t0.Sub(r.epoch))
	r.dur = append(r.dur, d)
	r.mu.Unlock()
}

func bucketOf(d time.Duration) int { return max(int(d/refBucket), 0) }

// seal computes the unit of every bucket: the median slice time of the
// slices within refWindow buckets of it, or of all slices where that
// stretch holds none. Call it after the logging goroutines have stopped.
func (r *refLog) seal() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.at) == 0 {
		return
	}
	n := 0
	for _, a := range r.at {
		n = max(n, bucketOf(a)+1)
	}
	per := make([][]float64, n)
	for i, a := range r.at {
		b := bucketOf(a)
		per[b] = append(per[b], float64(r.dur[i]))
	}
	overall := r.median()
	r.units = make([]time.Duration, n)
	var near []float64
	for b := range r.units {
		near = near[:0]
		for k := max(b-refWindow, 0); k <= min(b+refWindow, n-1); k++ {
			near = append(near, per[k]...)
		}
		r.units[b] = overall
		if len(near) > 0 {
			r.units[b] = time.Duration(medianOf(near))
		}
	}
}

// unitAt is the ref unit at offset d from the epoch (after seal).
func (r *refLog) unitAt(d time.Duration) time.Duration {
	if len(r.units) == 0 {
		return 0
	}
	return r.units[min(bucketOf(d), len(r.units)-1)]
}

// median is the median slice time over the whole window.
func (r *refLog) median() time.Duration {
	v := make([]float64, len(r.dur))
	for i, d := range r.dur {
		v[i] = float64(d)
	}
	return time.Duration(medianOf(v))
}

// timing is one measured duration and its start, from the epoch.
type timing struct{ at, d time.Duration }

// inRef expresses timings in ref units (after seal).
func (r *refLog) inRef(ts []timing) []float64 {
	v := make([]float64, len(ts))
	for i, t := range ts {
		v[i] = float64(t.d) / float64(r.unitAt(t.at))
	}
	return v
}

// placement is where the benchmark's threads run: the threads that keep
// a core busy (a writer, the query client) on one CPU, every other
// thread of the process (the collector, the servers, the garbage
// collector) on another. Pinned, the busy thread keeps its caches and
// never trades places with the collector. With fewer than two CPUs
// allowed, nothing is pinned.
var placement struct {
	pinned          bool
	collector, busy int
}

// cpuTimed runs fn with the goroutine locked to its thread and returns
// the thread's CPU time over the call.
func cpuTimed(fn func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c := currentThreadClock()
	t0 := c.now()
	fn()
	return c.now() - t0
}

// threadSet is the CPU clocks of the threads that keep a core busy beside
// the collector (writers, the query client), each goroutine locked to its
// thread for its life. A round's own CPU time is the process's minus
// theirs over the round.
type threadSet struct {
	mu     sync.Mutex
	clocks []cpuClock
}

// lockThread locks the calling goroutine to its thread for good (the
// thread ends with the goroutine), pins it to the busy CPU and adds it to
// s; it returns the thread's clock.
func (s *threadSet) lockThread() cpuClock {
	runtime.LockOSThread()
	pinBusy()
	c := currentThreadClock()
	s.mu.Lock()
	s.clocks = append(s.clocks, c)
	s.mu.Unlock()
	return c
}

// othersCPU is the process CPU time and the set's summed CPU time, now.
func (s *threadSet) othersCPU() (process, others time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.clocks {
		others += c.now()
	}
	return processClock.now(), others
}

// chunkLog is the ingest a writer did: packets and CPU time per chunk,
// logged by one goroutine, and the log of the reference slices run on the
// writer's side.
type chunkLog struct {
	ref *refLog
	at  []time.Duration
	n   []int
	dur []time.Duration
}

func (c *chunkLog) add(at time.Duration, n int, d time.Duration) {
	c.at, c.n, c.dur = append(c.at, at), append(c.n, n), append(c.dur, d)
}

// rate is the ingest rate in packets per ref: for each ref bucket that
// saw ingest, its packets over its CPU time in ref units; then the median
// over buckets. ok is false when nothing was ingested.
func (c *chunkLog) rate() (v float64, ok bool) {
	type acc struct {
		n   int
		dur time.Duration
	}
	per := map[int]*acc{}
	for i, a := range c.at {
		b := bucketOf(a)
		if per[b] == nil {
			per[b] = &acc{}
		}
		per[b].n += c.n[i]
		per[b].dur += c.dur[i]
	}
	var rates []float64
	for b, a := range per {
		if u := c.ref.unitAt(time.Duration(b) * refBucket); a.dur > 0 && u > 0 {
			rates = append(rates, float64(a.n)/float64(a.dur)*float64(u))
		}
	}
	if len(rates) == 0 {
		return 0, false
	}
	sort.Float64s(rates)
	return median(rates), true
}

// cpuMpps is the chunks' packets over their CPU time, in Mpkt/s.
func (c *chunkLog) cpuMpps() float64 {
	var n int
	var d time.Duration
	for i := range c.n {
		n, d = n+c.n[i], d+c.dur[i]
	}
	if d == 0 {
		return 0
	}
	return float64(n) / d.Seconds() / 1e6
}
