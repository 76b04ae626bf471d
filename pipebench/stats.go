package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be reported at all.
const minBeyond = 10

// tailLadder is the set of percentiles a tail is reported at; the
// highest one the sample count supports wins.
var tailLadder = []float64{50, 90, 99, 99.9}

// summary is a latency sample set reduced to the numbers the benchmark
// reports: the median and the highest ladder percentile that has at
// least minBeyond samples beyond it.
type summary struct {
	N     int
	P50   float64
	TailP float64 // percentile of Tail; 0 when no percentile qualifies
	Tail  float64
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the nearest-rank index of the p-th percentile among n
// sorted samples.
func rankIndex(n int, p float64) int {
	// The epsilon keeps float rounding (99.9/100·10000 = 9990.000…02)
	// from pushing an exact rank up by one.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples strictly after the p-th percentile's rank.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples beyond it, or 0 when none does.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// summarize sorts a copy of samples and reduces it.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: math.NaN(), Tail: math.NaN()}
	if len(s) == 0 {
		return out
	}
	out.P50 = median(s)
	if p := tailPercentile(len(s)); p > 0 {
		out.TailP, out.Tail = p, percentile(s, p)
	}
	return out
}

// median of sorted values (mean of the middle two for an even count).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf is median over an unsorted slice.
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return median(s)
}

// label renders a summary's tail as "p99 of n=1234".
func (s summary) label() string {
	return fmt.Sprintf("p%g of n=%d", s.TailP, s.N)
}

// schedule is an open-loop send schedule: chunk i is due at
// start + i·interval, whatever happened to earlier chunks.
type schedule struct {
	start    time.Time
	interval time.Duration
}

// due returns when chunk i should be sent.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// lag is how late a chunk that started at t ran behind its due time;
// starting early (the writer slept until due) is no lag.
func lag(due, t time.Time) time.Duration {
	if d := t.Sub(due); d > 0 {
		return d
	}
	return 0
}

// ledger is packet conservation across a reset-mode collection run:
// every packet written is either counted by a filed window, still
// resident in a switch (read after the writer stopped), or lost.
type ledger struct {
	Sent     uint64 // packets the writer handed to the switches
	Filed    uint64 // Σ TotalCount of the filed windows
	Residual uint64 // packets in the final read after the writer stopped
}

// counted is every packet some read accounted for.
func (l ledger) counted() uint64 { return l.Filed + l.Residual }

// Lost is the packets no read accounted for (0 when over-counted).
func (l ledger) Lost() uint64 {
	if c := l.counted(); c < l.Sent {
		return l.Sent - c
	}
	return 0
}

// Double is the packets counted more than once (0 when none).
func (l ledger) Double() uint64 {
	if c := l.counted(); c > l.Sent {
		return c - l.Sent
	}
	return 0
}

// LostPct is Lost as a percentage of Sent.
func (l ledger) LostPct() float64 {
	if l.Sent == 0 {
		return 0
	}
	return 100 * float64(l.Lost()) / float64(l.Sent)
}

// heapSampler tracks the peak of the Go heap in use (live and not yet
// swept object bytes) by sampling runtime/metrics on a fixed period.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampler goroutine, read after done
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// startHeapSampler samples every period until stopHeap returns.
func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value; v.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, v.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stopHeap stops the sampler, waits for it, and returns the peak in MiB.
func (h *heapSampler) stopHeap() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
