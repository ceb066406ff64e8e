package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one rep share the
// rep number; Parent is the span that caused it (-1 for a rep's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Rep     int    `json:"rep"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is the span's duration minus what its children cover; filled in
	// when the trace is written.
	SelfNS int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is the
// untraced pass: every method is a no-op, so the same rep code serves both.
// Only the goroutine running the reps records spans.
type tracer struct {
	epoch time.Time
	rep   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// nextRep starts a new rep: spans recorded from now on carry its number.
func (t *tracer) nextRep() {
	if t != nil {
		t.rep++
	}
}

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Rep: t.rep, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

func (t *tracer) endAt(id int, at time.Time) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = at.Sub(t.epoch).Nanoseconds()
}

// children returns the spans recorded under parent.
func (t *tracer) children(parent int) []span {
	var out []span
	for _, s := range t.spans[parent+1:] {
		if s.Parent == parent {
			out = append(out, s)
		}
	}
	return out
}

// withSelfTimes returns the spans with SelfNS filled in. Children of one
// parent never overlap here (each rep is a sequence of calls), so a span's
// self time is its duration minus the sum of its children's.
func (t *tracer) withSelfTimes() []span {
	out := append([]span(nil), t.spans...)
	for i := range out {
		out[i].SelfNS = out[i].EndNS - out[i].StartNS
	}
	for _, s := range out {
		if s.Parent >= 0 {
			out[s.Parent].SelfNS -= s.EndNS - s.StartNS
		}
	}
	return out
}

// write stores the trace of one lane as dir/trace-<engine>-<problem>.json.
func (t *tracer) write(dir string, l *lane, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Lane  string `json:"lane"`
		Seed  int64  `json:"seed"`
		Spans []span `json:"spans"`
	}{l.name(), seed, t.withSelfTimes()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+l.eng.name+"-"+l.p.name+".json"), data, 0o644)
}
