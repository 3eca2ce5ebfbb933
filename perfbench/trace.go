package main

import (
	"slices"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer's public function.
type span struct {
	name           string
	startNS, endNS int64
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per call site. It is safe for use from
// the engine.ForEach workers of the fan-out workloads.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id, to be passed to finish.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, startNS: now})
	return len(t.spans) - 1
}

// finish closes the span with the given id.
func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].endNS = now
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name, in
// ascending order.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, time.Duration(s.endNS-s.startNS))
		}
	}
	slices.Sort(out)
	return out
}

// total returns the summed duration of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// tail returns the highest percentile of ascending durations that has at
// least ten samples beyond it: the 11th-largest value. With fewer than 11
// samples no such percentile exists and the maximum is returned.
func tail(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	if len(d) < 11 {
		return d[len(d)-1]
	}
	return d[len(d)-11]
}
