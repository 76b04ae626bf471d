package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySizes runs the benchmark's code paths at test scale.
var tinySizes = sizes{
	MemoryBytes:    16 << 10,
	IngestTrace:    1 << 12,
	CAIDATrace:     1 << 12,
	Chunk:          256,
	LiveRate:       2e5,
	IngestRound:    1 << 17,
	LivePeriod:     20 * time.Millisecond,
	QueryPeriod:    100 * time.Millisecond,
	PrefillWindows: 8,
	WindowPackets:  512,
	EntropyEvery:   8,
	Setups:         2,
	Reps:           2,
}

// TestSmokeAllWorkloads runs every workload untraced and traced at tiny
// size: the checks pass and every metric of BENCHMARK.json is reported.
func TestSmokeAllWorkloads(t *testing.T) {
	if !cpuClocks {
		t.Skip("the benchmark measures CPU time through Linux clocks")
	}
	for _, name := range []string{"ingest", "live", "query"} {
		for _, traced := range []bool{false, true} {
			o := options{seed: 3, seconds: 0.6, traced: traced, sz: tinySizes}
			res, err := run(name, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(res.problems) > 0 {
				t.Fatalf("%s traced=%v: checks failed: %v", name, traced, res.problems)
			}
			var out, errOut bytes.Buffer
			if rc := finish(res, name, o, &out, &errOut); rc != 0 {
				t.Fatalf("%s traced=%v: exit %d: %s", name, traced, rc, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s: last line is not the JSON report: %v", name, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) || !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: report %+v", name, traced, rep)
			}
			for _, m := range want {
				if rep.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q", name, traced, m.Name, rep.Metrics[m.Name].Unit)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric lists
// and workloads in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "ingest,live,query" {
		t.Errorf("workloads %v, want ingest, live, query", names)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
