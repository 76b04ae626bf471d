package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {19, 0}, // even the median leaves < 10 beyond
		{20, 50}, {99, 50},
		{100, 90}, {999, 90},
		{1000, 99}, {9999, 99},
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 {
			if b := beyond(c.n, c.want); b < minBeyond {
				t.Errorf("n=%d p%g leaves %d beyond, want ≥ %d", c.n, c.want, b, minBeyond)
			}
		}
	}
}

func TestSummarizeReportsMedianTailAndCount(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted
	}
	s := summarize(v)
	if s.N != 100 || s.P50 != 50.5 || s.TailP != 90 || s.Tail != 90 {
		t.Fatalf("summary = n %d p50 %g tail p%g %g, want n 100 p50 50.5 tail p90 90", s.N, s.P50, s.TailP, s.Tail)
	}
	if got, want := s.label(), "p90 of n=100"; got != want {
		t.Errorf("label = %q, want %q", got, want)
	}
	if v[0] != 100 {
		t.Error("summarize sorted its input in place")
	}
	small := summarize([]float64{3, 1, 2})
	if small.P50 != 2 || small.TailP != 0 || !math.IsNaN(small.Tail) {
		t.Errorf("3 samples: p50 %g tail p%g %g, want 2 and no tail", small.P50, small.TailP, small.Tail)
	}
	if s := summarize(nil); !math.IsNaN(s.P50) {
		t.Errorf("empty p50 = %g, want NaN", s.P50)
	}
}

// TestOpenLoopLagCountsStalls simulates a writer whose third chunk
// stalls: the chunks queued behind it are timed from when they were due,
// so the stall shows in every one of them until the writer catches up.
func TestOpenLoopLagCountsStalls(t *testing.T) {
	t0 := time.Unix(0, 0)
	sched := schedule{start: t0, interval: 10 * time.Millisecond}
	cost := []time.Duration{2, 2, 35, 2, 2, 2, 2} // ms per chunk
	var lags []time.Duration
	free := t0 // when the writer can start its next chunk
	for i, c := range cost {
		due := sched.due(i)
		start := free
		if start.Before(due) {
			start = due // the writer sleeps until due
		}
		lags = append(lags, lag(due, start))
		free = start.Add(c * time.Millisecond)
	}
	want := []time.Duration{0, 0, 0, 25, 17, 9, 1} // ms
	for i := range want {
		if lags[i] != want[i]*time.Millisecond {
			t.Errorf("chunk %d lag %v, want %v", i, lags[i], want[i]*time.Millisecond)
		}
	}
	if got := sched.due(3).Sub(t0); got != 30*time.Millisecond {
		t.Errorf("chunk 3 due at %v, want 30ms", got)
	}
}

func TestLedgerConservation(t *testing.T) {
	l := ledger{Sent: 1000, Filed: 800, Residual: 50}
	if l.Lost() != 150 || l.Double() != 0 || l.LostPct() != 15 {
		t.Errorf("lossy ledger: lost %d double %d lost%% %g, want 150 0 15", l.Lost(), l.Double(), l.LostPct())
	}
	l = ledger{Sent: 1000, Filed: 990, Residual: 20}
	if l.Lost() != 0 || l.Double() != 10 || l.LostPct() != 0 {
		t.Errorf("double-counting ledger: lost %d double %d, want 0 10", l.Lost(), l.Double())
	}
	if (ledger{}).LostPct() != 0 {
		t.Error("empty ledger lost share is not 0")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	lanes := [][]span{{
		{Name: "bench.round", Parent: -1, Start: 0, End: 100},
		{Name: "collect.read", Parent: 0, Start: 10, End: 30},
		{Name: "window.file", Parent: 0, Start: 40, End: 90},
		{Name: "core.merge", Parent: 2, Start: 50, End: 60},
		{Name: "engine.batch", Parent: -1, Start: 0, End: 0}, // never closed
	}}
	want := map[string]time.Duration{"bench": 30, "collect": 20, "window": 40, "core": 10}
	got := selfTime(lanes)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
	if _, ok := got["engine"]; ok {
		t.Error("an unclosed span contributed self time")
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	l := r.lane()
	if i := l.begin("x.y", 1, -1); i != -1 {
		t.Fatalf("nil lane begin = %d, want -1", i)
	}
	l.end(-1)
	r = newRecorder()
	l = r.lane()
	root := l.begin("bench.round", 7, -1)
	child := l.begin("collect.read", 7, root)
	l.end(child)
	l.end(root)
	all := r.all()
	if len(all) != 1 || len(all[0]) != 2 || all[0][1].Parent != root || all[0][1].ID != 7 {
		t.Fatalf("recorded %+v", all)
	}
	if d := byName(all)["collect.read"]; len(d) != 1 {
		t.Errorf("byName found %d collect.read spans, want 1", len(d))
	}
}

// TestRefUnitFollowsTheHost slows the host down twofold after 2 s: the
// reference slices, the writer's chunks and a round all take twice the CPU
// time, and the rate in packets per ref, like the round in refs, stays
// where it was.
func TestRefUnitFollowsTheHost(t *testing.T) {
	r := newRefLog(time.Unix(0, 0))
	c := &chunkLog{ref: r}
	slow := func(at time.Duration) time.Duration {
		if at >= 2*time.Second {
			return 2
		}
		return 1
	}
	for at := time.Duration(0); at < 5*time.Second; at += 50 * time.Millisecond {
		r.at, r.dur = append(r.at, at), append(r.dur, slow(at)*time.Millisecond)
		for k := time.Duration(0); k < 50; k += 5 {
			c.add(at+k*time.Millisecond, 4096, slow(at)*250*time.Microsecond)
		}
	}
	r.seal()
	for _, at := range []time.Duration{0, 1900 * time.Millisecond, 2 * time.Second, 4950 * time.Millisecond} {
		if got, want := r.unitAt(at), slow(at)*time.Millisecond; got != want {
			t.Errorf("unit at %v = %v, want %v", at, got, want)
		}
	}
	if got, ok := c.rate(); !ok || got != 4096*4 {
		t.Errorf("rate = %g packets/ref (ok %v), want %d", got, ok, 4096*4)
	}
	v := r.inRef([]timing{{at: time.Second, d: 30 * time.Millisecond}, {at: 3 * time.Second, d: 60 * time.Millisecond}})
	if v[0] != 30 || v[1] != 30 {
		t.Errorf("inRef = %v, want [30 30]", v)
	}
	if got := c.cpuMpps(); math.Abs(got-4096/(0.25e-3*(2+3*2)/5)/1e6) > 1e-9 {
		t.Errorf("cpuMpps = %g", got)
	}
	if _, ok := (&chunkLog{ref: newRefLog(time.Now())}).rate(); ok {
		t.Error("rate with no slices and no chunks reported ok")
	}
}

// TestCPUTimedLeavesOutSleep: time a goroutine spends blocked is not CPU
// time.
func TestCPUTimedLeavesOutSleep(t *testing.T) {
	if !cpuClocks {
		t.Skip("CPU clocks are read on Linux only")
	}
	if d := cpuTimed(func() { time.Sleep(100 * time.Millisecond) }); d > 20*time.Millisecond {
		t.Errorf("sleeping 100ms took %v of CPU time", d)
	}
}
