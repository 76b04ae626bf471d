// Command pipebench is the repository's benchmark: it runs one named
// workload through the whole measurement pipeline in one process —
// engine.Engine switches served by collect.Server over loopback TCP, read
// by collect.Client with codec-v3 deltas, restored, merged and filed into
// a window.Ring, then queried over time — on the paper's sketch geometry,
// checks that the answers are correct, and prints every metric.
//
//	pipebench --workload ingest|live|query --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics, its timings in CPU time per reference slice
// (ref.go); with --trace 1 the run times an untraced and a traced half,
// and the JSON carries the per-layer metrics computed from the traced
// half's spans and from probes, plus the tracing overhead.
// The lines before it are a table of every metric the workload reports,
// by name and unit. A failed correctness check exits with status 1.
//
// Run it through run.sh, which builds it from the checkout; record.json
// beside this file holds the geometry, the workload rationale, the
// layer-to-metric predictions and the mapping of the older BENCH_*.json
// rows onto these metric names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a --trace 0 run reports; every workload runs
// the same switch → collector → ring path, so each is defined on each.
// Timings are in reference slices (ref.go): ingest_rate in kilopackets
// per ref, fresh_p50 and query_p50 in refs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ingest_rate", "kpkt/ref", "higher"},
	{"fresh_p50", "ref", "lower"},
	{"query_p50", "ref", "lower"},
	{"wire_kb_per_round", "KiB", "lower"},
	{"heap_peak_mb", "MiB", "lower"},
}

// perLayer are the metrics a --trace 1 run reports.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"trace.generate_s", "s", "lower"},
		{"hashing.index_ns", "ns", "lower"},
		{"core.update_ns", "ns", "lower"},
		{"core.merge_ms", "ms", "lower"},
		{"core.estimate_ns", "ns", "lower"},
		{"core.cardinality_ms", "ms", "lower"},
		{"core.virtual_counters_ms", "ms", "lower"},
		{"engine.batch_ns", "ns", "lower"},
		{"engine.snapshot_ms", "ms", "lower"},
		{"engine.snapshot_allocs", "count", "lower"},
		{"collect.read_ms", "ms", "lower"},
		{"collect.reset_ms", "ms", "lower"},
		{"collect.close_gap_ms", "ms", "lower"},
		{"collect.restore_ms", "ms", "lower"},
		{"collect.diff_ms", "ms", "lower"},
		{"collect.encode_ms", "ms", "lower"},
		{"collect.decode_ms", "ms", "lower"},
		{"collect.apply_ms", "ms", "lower"},
		{"collect.state_crc_ms", "ms", "lower"},
		{"collect.delta_share", "ratio", "higher"},
		{"collect.wire_bytes", "B", "lower"},
		{"window.file_ms", "ms", "lower"},
		{"window.coarsen_merges", "count", "lower"},
	}
	for _, lb := range lookbacks {
		m = append(m, metricDef{fmt.Sprintf("window.fold_ms.lb%d", lb), "ms", "lower"})
	}
	for _, lb := range lookbacks {
		m = append(m, metricDef{fmt.Sprintf("window.buckets.lb%d", lb), "count", "lower"})
	}
	m = append(m,
		metricDef{"window.resident_mb", "MiB", "lower"},
		metricDef{"em.run_ms", "ms", "lower"},
		metricDef{"em.iterations", "count", "lower"},
	)
	for _, l := range selfLayers {
		m = append(m, metricDef{l + ".self_s", "s", "lower"})
	}
	return append(m, metricDef{"trace.overhead_pct", "%", "lower"})
}()

// selfLayers are the layers whose self time the traced half reports.
var selfLayers = []string{"engine", "collect", "core", "window"}

// row is one line of the printed table.
type row struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Note  string  `json:"note,omitempty"`
}

// result is one run's outcome.
type result struct {
	problems  []string
	attempted uint64
	failed    uint64
	metrics   map[string]float64 // the JSON metrics of this run's mode
	rows      []row              // everything printed
	spans     [][]span           // the traced half's spans, per lane
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// row adds a printed-only metric.
func (r *result) row(name, unit string, v float64, note string) {
	r.rows = append(r.rows, row{name, unit, v, note})
}

// tailRow prints a latency summary's tail under the name of the
// percentile the sample count supports, e.g. fresh_p90_ms; with too few
// samples for any percentile it prints nothing.
func (r *result) tailRow(prefix string, s summary, note string) {
	if s.TailP == 0 {
		return
	}
	r.row(fmt.Sprintf("%s_p%g_ms", prefix, s.TailP), "ms", s.Tail, note+", "+s.label())
}

// metric sets a JSON metric and prints it.
func (r *result) metric(name string, v float64, note string) {
	r.metrics[name] = v
	r.row(name, unitOf(name), v, note)
}

func unitOf(name string) string {
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// e2e sets the end-to-end metrics every workload shares, from its
// untraced timed window; query is the lookback-1 query of each round.
func (r *result) e2e(ph *phase, su setupStats) {
	q := make([]timing, len(ph.rounds))
	wall := make([]float64, len(ph.rounds))
	for i, rr := range ph.rounds {
		q[i] = timing{rr.at, rr.queryCPU}
		wall[i] = ms(rr.query)
	}
	r.e2eQuery(ph, su, ph.ref.inRef(q), summarize(wall), fmt.Sprintf("CPU: each round's lookback-1 HH answer, n=%d", len(q)))
}

// e2eQuery is e2e with the query timings given: in refs, and their
// wall-clock summary.
func (r *result) e2eQuery(ph *phase, su setupStats, queryRef []float64, queryWall summary, queryNote string) {
	r.metric("setup_s", su.cpuS, fmt.Sprintf("CPU time, median of %d set-ups", su.n))
	r.row("setup_wall_s", "s", su.wallS, "wall clock, the same set-ups")
	r.metric("ingest_rate", ph.rateRef(), fmt.Sprintf("writer packets per ref of CPU, median of %v buckets", refBucket))
	r.metric("fresh_p50", ph.freshRef(), fmt.Sprintf("CPU: round start → lookback-1 answer, n=%d", len(ph.rounds)))
	r.metric("query_p50", medianOf(queryRef), queryNote)
	r.metric("wire_kb_per_round", ph.wireKiB(), "collection response bytes per round")
	r.metric("heap_peak_mb", ph.heapPeak, "peak Go heap in use, timed window")
	for _, side := range []struct {
		name string
		log  *refLog
	}{{"collector", ph.ref}, {"busy", ph.busyRef}} {
		if n := len(side.log.at); n > 0 {
			r.row("ref_"+side.name+"_ms", "ms", ms(side.log.median()), fmt.Sprintf("CPU time of a reference slice on the %s CPU, median of %d", side.name, n))
		}
	}
	r.row("ingest_mpps", "Mpkt/s", ph.mpps(), fmt.Sprintf("wall clock: %d packets in %.1f s", ph.packets, ph.elapsed.Seconds()))
	r.row("ingest_cpu_mpps", "Mpkt/s", ph.chunks.cpuMpps(), "packets over the writer's CPU time")
	r.row("fresh_p50_ms", "ms", ph.freshMs().P50, "wall clock")
	r.row("query_p50_ms", "ms", queryWall.P50, fmt.Sprintf("wall clock, every answer, n=%d", queryWall.N))
}

// layers replaces the JSON metrics with the per-layer ones: span-derived
// where the traced half exercised the layer, probes otherwise.
func (r *result) layers(lp *layerProbe, tr *phase, genS, overheadPct float64) error {
	r.metrics = make(map[string]float64)
	lanes := tr.rec.all()
	r.spans = lanes
	spans := byName(lanes)
	fromSpan := func(name, spanName string) bool {
		ds := spans[spanName]
		if len(ds) == 0 {
			return false
		}
		r.metric(name, medianMs(ds), fmt.Sprintf("span median, n=%d", len(ds)))
		return true
	}
	probe := func(name string, v float64) { r.metric(name, v, "probe") }

	r.metric("trace.generate_s", genS, "median of set-ups")
	keys := lp.probeKeys()
	upd, w1, err := lp.updateNs(keys)
	if err != nil {
		return err
	}
	probe("hashing.index_ns", lp.hashIndexNs(keys, w1))
	probe("core.update_ns", upd)
	if !fromSpan("core.merge_ms", "core.merge") {
		d, err := lp.mergeProbe()
		if err != nil {
			return err
		}
		probe("core.merge_ms", d)
	}
	probe("core.estimate_ns", lp.estimateProbe())
	emp, err := lp.emProbe()
	if err != nil {
		return err
	}
	for _, n := range []string{"core.cardinality_ms", "core.virtual_counters_ms", "em.run_ms"} {
		probe(n, emp[n])
	}
	probe("em.iterations", emp["em.iterations"])
	if b := spans["engine.batch"]; len(b) > 0 {
		var total float64
		for _, d := range b {
			total += float64(d)
		}
		r.metric("engine.batch_ns", total/float64(len(b)*lp.sz.Chunk), fmt.Sprintf("span total / packets, %d chunks", len(b)))
	}
	snap := tr.probes
	note := "probe under live ingest"
	if snap == nil {
		snap, note = snapshotProbe(lp.p, lp.reps), "probe, no ingest running"
	}
	r.metric("engine.snapshot_ms", snap["engine.snapshot_ms"], note)
	r.metric("engine.snapshot_allocs", snap["engine.snapshot_allocs"], note)
	fromSpan("collect.read_ms", "collect.read")
	fromSpan("collect.restore_ms", "collect.restore")
	if !fromSpan("collect.reset_ms", "collect.reset") {
		reset, gap, err := lp.resetProbe()
		if err != nil {
			return err
		}
		probe("collect.reset_ms", reset)
		probe("collect.close_gap_ms", gap)
	} else {
		var gaps []float64
		for _, rr := range tr.rounds {
			for _, g := range rr.gaps {
				gaps = append(gaps, ms(g))
			}
		}
		r.metric("collect.close_gap_ms", medianOf(gaps), fmt.Sprintf("read start → reset end, n=%d", len(gaps)))
	}
	rp, err := lp.readPath()
	if err != nil {
		return err
	}
	for _, n := range []string{"diff", "encode", "decode", "apply", "state_crc"} {
		probe("collect."+n+"_ms", rp["collect."+n+"_ms"])
	}
	var deltas, fulls, bytes, reads uint64
	for _, m := range lp.p.members {
		cs, ss := m.client.Stats(), m.srv.Stats()
		deltas, fulls = deltas+cs.DeltasApplied, fulls+cs.FullSnapshots
		bytes, reads = bytes+ss.DeltaWireBytes+ss.FullWireBytes, reads+ss.DeltaReads
	}
	r.metric("collect.delta_share", float64(deltas)/float64(max(deltas+fulls, 1)), fmt.Sprintf("%d deltas, %d full snapshots", deltas, fulls))
	r.metric("collect.wire_bytes", float64(bytes)/float64(max(reads, 1)), fmt.Sprintf("response bytes per read, %d reads", reads))
	fromSpan("window.file_ms", "window.file")
	var merges uint64
	for _, rr := range tr.rounds {
		merges += rr.merges
	}
	r.metric("window.coarsen_merges", float64(merges)/float64(max(len(tr.rounds), 1)), fmt.Sprintf("per filed window, %d windows", len(tr.rounds)))
	for _, lb := range lookbacks {
		d, buckets, err := lp.foldProbe(lb)
		if err != nil {
			return err
		}
		probe(fmt.Sprintf("window.fold_ms.lb%d", lb), d)
		probe(fmt.Sprintf("window.buckets.lb%d", lb), float64(buckets))
	}
	r.metric("window.resident_mb", float64(lp.p.ring.Stats().ResidentBytes)/(1<<20), "retained buckets")
	self := selfTime(lanes)
	for _, l := range selfLayers {
		r.metric(l+".self_s", self[l].Seconds(), "span self time, traced half")
	}
	r.metric("trace.overhead_pct", overheadPct, "traced half vs untraced half, primary metric in refs")
	return nil
}

// jsonMetric is one metric of the final JSON line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: ingest, live or query")
	seed := fs.Int64("seed", 1, "workload seed (trace, query mix)")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	traced := fs.Int("trace", 0, "1: report per-layer metrics from a traced half")
	out := fs.String("out", "", "directory for the run record and span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "pipebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if !cpuClocks {
		fmt.Fprintln(stderr, "pipebench: needs the per-thread CPU clocks of Linux")
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traced == 1, sz: paperSizes, out: *out}
	pinThreads()
	fmt.Fprintf(stdout, "pipebench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "environment: %s\n", envLine())
	if placement.pinned {
		fmt.Fprintf(stdout, "placement: busy threads on CPU %d, the rest on CPU %d\n", placement.busy, placement.collector)
	}
	res, err := run(*workload, o)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	return finish(res, *workload, o, stdout, stderr)
}

// finish prints the table and the JSON line, and writes the run record.
func finish(res *result, workload string, o options, stdout, stderr io.Writer) int {
	for _, rw := range res.rows {
		fmt.Fprintf(stdout, "  %-28s %14.4f %-7s %s\n", rw.Name, rw.Value, rw.Unit, rw.Note)
	}
	fmt.Fprintf(stdout, "  attempted %d, failed %d\n", res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "  CHECK FAILED:", p)
	}
	want := endToEnd
	if o.traced {
		want = perLayer
	}
	rep := report{Correct: len(res.problems) == 0, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range want {
		v, ok := res.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "pipebench: metric %s was not measured\n", m.Name)
			return 1
		}
		rep.Metrics[m.Name] = jsonMetric{Value: v, Unit: m.Unit}
	}
	if o.out != "" {
		if err := writeRecord(res, workload, o); err != nil {
			fmt.Fprintln(stderr, "pipebench: writing the run record:", err)
		}
		if res.spans != nil {
			path := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.json", workload, o.seed))
			if err := writeSpans(path, res.spans); err != nil {
				fmt.Fprintln(stderr, "pipebench: writing spans:", err)
			}
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// envLine describes the machine the run measured.
func envLine() string {
	return fmt.Sprintf("%s/%s cpu=%q nproc=%d gomaxprocs=%d %s",
		runtime.GOOS, runtime.GOARCH, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// cpuModel reads the CPU model name where the OS exposes it.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeRecord writes the run's table (every metric with unit and note)
// and environment to <out>/record-<workload>-<seed>-trace<n>.json.
func writeRecord(res *result, workload string, o options) error {
	tr := 0
	if o.traced {
		tr = 1
	}
	rec := struct {
		Workload    string   `json:"workload"`
		Seed        int64    `json:"seed"`
		Seconds     float64  `json:"seconds"`
		Trace       int      `json:"trace"`
		Environment string   `json:"environment"`
		Rows        []row    `json:"rows"`
		Problems    []string `json:"problems,omitempty"`
	}{workload, o.seed, o.seconds, tr, envLine(), res.rows, res.problems}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("record-%s-%d-trace%d.json", workload, o.seed, tr)), b, 0o644)
}
