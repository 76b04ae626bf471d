package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/window"
)

// Probes run after the timed window, on the workload's own keys and on
// state the run captured, through the modules' public functions. Each is
// repeated and reported as a median.

// sink keeps probe results live so the compiler cannot drop the calls.
var sink uint64

// repMs runs fn reps times and returns the median duration in ms.
func repMs(reps int, fn func() error) (float64, error) {
	v := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		v = append(v, ms(time.Since(t0)))
	}
	return medianOf(v), nil
}

// probeKeys is the first packets of the trace, in arrival order.
func (lp *layerProbe) probeKeys() [][]byte {
	n := min(len(lp.p.tr.Order), 1<<18)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = lp.p.key(uint64(i))
	}
	return keys
}

// layerProbe runs the probes of one workload's pipeline.
type layerProbe struct {
	p    *pipeline
	reps int
	sz   sizes
}

// hashIndexNs is one-pass index derivation per key: the BobHash pass and
// both trees' leaf indexes, as core's update and query paths derive them.
func (lp *layerProbe) hashIndexNs(keys [][]byte, w1 int) float64 {
	wide := hashing.NewBobFamily(familySeed).Wide()
	d, _ := repMs(lp.reps, func() error {
		for _, k := range keys {
			pc, pb := wide.Pair(k)
			sink += uint64(hashing.WideIndex0(pc, pb, w1) + hashing.WideIndex1(pc, pb, w1))
		}
		return nil
	})
	return d * 1e6 / float64(len(keys))
}

// updateNs is bare-sketch UpdateBatch time per packet.
func (lp *layerProbe) updateNs(keys [][]byte) (float64, int, error) {
	sk, err := core.New(lp.p.cfg)
	if err != nil {
		return 0, 0, err
	}
	d, err := repMs(lp.reps, func() error {
		for i := 0; i < len(keys); i += 256 {
			sk.UpdateBatch(keys[i:min(i+256, len(keys))], 1)
		}
		return nil
	})
	return d * 1e6 / float64(len(keys)), sk.LeafWidth(), err
}

// snapshotProbe times engine.Snapshot of the first switch, and counts
// its allocations, while whatever else is running keeps running (under
// live ingest when called before the writers stop).
func snapshotProbe(p *pipeline, reps int) map[string]float64 {
	eng := p.members[0].eng
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d, _ := repMs(reps, func() error {
		sk, _ := eng.Snapshot()
		sink += uint64(sk.LeafWidth())
		return nil
	})
	runtime.ReadMemStats(&m1)
	return map[string]float64{
		"engine.snapshot_ms":     d,
		"engine.snapshot_allocs": float64(m1.Mallocs-m0.Mallocs) / float64(reps),
	}
}

// readPath replays the delta read path on the first switch's last two
// collected snapshots: diff, encode, decode, apply and the state CRC.
func (lp *layerProbe) readPath() (map[string]float64, error) {
	m := lp.p.members[0]
	cur, base := m.last, m.prev
	if cur == nil {
		return nil, fmt.Errorf("read-path probe: no snapshot was collected")
	}
	if base == nil {
		sk, err := core.New(lp.p.cfg)
		if err != nil {
			return nil, err
		}
		base = collect.TakeSnapshot(sk)
	}
	out := make(map[string]float64)
	var blocks []collect.DeltaBlock
	var err error
	if out["collect.diff_ms"], err = repMs(lp.reps, func() error {
		var ok bool
		if blocks, ok = collect.DiffSnapshots(base, cur); !ok {
			return fmt.Errorf("read-path probe: snapshots differ in geometry")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	frame := &collect.DeltaFrame{BaseGen: 1, NewGen: 2, Blocks: blocks}
	if out["collect.state_crc_ms"], err = repMs(lp.reps, func() error {
		frame.StateCRC = cur.StateCRC()
		return nil
	}); err != nil {
		return nil, err
	}
	var buf []byte
	if out["collect.encode_ms"], err = repMs(lp.reps, func() error {
		buf, err = frame.AppendEncode(buf[:0])
		return err
	}); err != nil {
		return nil, err
	}
	var dec *collect.DeltaFrame
	if out["collect.decode_ms"], err = repMs(lp.reps, func() error {
		dec, err = collect.DecodeDeltaFrame(buf)
		return err
	}); err != nil {
		return nil, err
	}
	var next *collect.Snapshot
	if out["collect.apply_ms"], err = repMs(lp.reps, func() error {
		next, err = collect.ApplyDelta(base, dec.Blocks)
		return err
	}); err != nil {
		return nil, err
	}
	if next.StateCRC() != frame.StateCRC {
		return nil, fmt.Errorf("read-path probe: applied delta does not reproduce the pinned state")
	}
	return out, nil
}

// resetProbe times read→reset pairs on the first switch: the reset call
// alone and the close gap from read start to reset end. It clears the
// switch, so it runs only after the checks.
func (lp *layerProbe) resetProbe() (reset, gap float64, err error) {
	c := lp.p.members[0].client
	var resets, gaps []float64
	for i := 0; i < lp.reps; i++ {
		t0 := time.Now()
		if _, err := c.ReadSketch(); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if err := c.ResetSketch(); err != nil {
			return 0, 0, err
		}
		resets = append(resets, ms(time.Since(t1)))
		gaps = append(gaps, ms(time.Since(t0)))
	}
	return medianOf(resets), medianOf(gaps), nil
}

// foldProbe times the fold at lookback lb as a query pays it: a
// QueryOverTime of one key folds the covering buckets into pooled
// scratch and adds a single Estimate. It also reports the
// covering-bucket count.
func (lp *layerProbe) foldProbe(lb int) (float64, int, error) {
	var buckets int
	d, err := repMs(lp.reps, func() error {
		est, cov, err := lp.p.ring.QueryOverTime(lp.p.cands[0], window.LastWindows(lb))
		sink += est
		buckets = cov.Buckets
		return err
	})
	return d, buckets, err
}

// emProbe folds lookback 1 and times, on it, Cardinality, the
// virtual-counter conversion and one EM run.
func (lp *layerProbe) emProbe() (map[string]float64, error) {
	sk, _, err := lp.p.ring.SnapshotOverTime(window.LastWindows(1))
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	out["core.cardinality_ms"], _ = repMs(lp.reps, func() error {
		sink += uint64(sk.Cardinality())
		return nil
	})
	var vcs [][]core.VirtualCounter
	out["core.virtual_counters_ms"], _ = repMs(lp.reps, func() error {
		vcs = sk.VirtualCounters()
		return nil
	})
	t0 := time.Now()
	res, err := em.Run(em.Config{W1: sk.LeafWidth(), Theta1: sk.StageMax(0), Workers: emWorkers}, vcs)
	if err != nil {
		return nil, err
	}
	out["em.run_ms"] = ms(time.Since(t0))
	out["em.iterations"] = float64(res.Iterations)
	return out, nil
}

// mergeProbe times merging the newest filed window into a copy of itself.
func (lp *layerProbe) mergeProbe() (float64, error) {
	src := lp.p.lastSk
	if src == nil {
		return 0, fmt.Errorf("merge probe: no window was filed")
	}
	dst := src.Clone()
	return repMs(lp.reps, func() error { return dst.Merge(src) })
}

// estimateProbe is per-key Estimate time over the candidates on the
// newest filed window.
func (lp *layerProbe) estimateProbe() float64 {
	sk := lp.p.lastSk
	d, _ := repMs(lp.reps, func() error {
		for _, k := range lp.p.cands {
			sink += sk.Estimate(k)
		}
		return nil
	})
	return d * 1e6 / float64(len(lp.p.cands))
}
