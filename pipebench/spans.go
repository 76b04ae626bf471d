package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: name, request ID (every span of
// one round or query shares it), parent span and start/end offsets from
// the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"` // index in the same lane; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span times: the name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the benchmark ends. Each
// goroutine records into its own lane, so recording takes no lock; a
// nil recorder (and the nil lanes it hands out) records nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*lane
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// lane is one goroutine's span buffer.
type lane struct {
	r     *recorder
	spans []span
}

// lane registers a new single-goroutine lane.
func (r *recorder) lane() *lane {
	if r == nil {
		return nil
	}
	l := &lane{r: r, spans: make([]span, 0, 1024)}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// begin opens a span and returns its handle (-1 on a nil lane).
func (l *lane) begin(name string, id uint64, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(l.r.epoch))})
	return len(l.spans) - 1
}

// end closes span i.
func (l *lane) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = int64(time.Since(l.r.epoch))
}

// all returns every recorded span, lane by lane; call it only after the
// recording goroutines have finished.
func (r *recorder) all() [][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]span, len(r.lanes))
	for i, l := range r.lanes {
		out[i] = l.spans
	}
	return out
}

// byName groups the durations of closed spans by span name.
func byName(lanes [][]span) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, spans := range lanes {
		for _, s := range spans {
			if s.End > 0 {
				out[s.Name] = append(out[s.Name], s.dur())
			}
		}
	}
	return out
}

// selfTime sums, per layer, each span's duration minus the part of it
// its child spans cover. Children of one parent run sequentially on the
// parent's goroutine, so the covered part is the sum of their durations.
func selfTime(lanes [][]span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, spans := range lanes {
		child := make([]time.Duration, len(spans))
		for _, s := range spans {
			if s.Parent >= 0 && s.End > 0 {
				child[s.Parent] += s.dur()
			}
		}
		for i, s := range spans {
			if s.End > 0 {
				out[s.layer()] += s.dur() - child[i]
			}
		}
	}
	return out
}

// writeSpans writes every span to path as JSON, one array per lane.
func writeSpans(path string, lanes [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(lanes); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianMs is the median of ds in milliseconds (0 when empty).
func medianMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = ms(d)
	}
	sort.Float64s(v)
	return median(v)
}
