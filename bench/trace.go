package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent is the span that caused it (0 = none); spans
// of one workload run share Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the benchmark
// ends. A nil or disabled tracer records nothing: end-to-end metrics
// come from untraced runs.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(run, name string, parent int) int {
	if !t.on {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-measured span (the sampled operator calls,
// timed on station goroutines).
func (t *tracer) add(run, name string, parent int, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover, over the spans of one run. Children of one
// parent are sequential here (the sampled operator spans run
// concurrently with their parent's wait and are excluded by name).
func (t *tracer) selfTimes(run string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Run == run && s.Parent != 0 && s.Name != spanProcess {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Run == run {
			self[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
		}
	}
	return self
}

// write dumps every span, ordered by start time, as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	out := append([]span{}, t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
