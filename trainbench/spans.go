package main

import (
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans one process keeps; the in-process transport
// wrapper alone records two per message, so a long traced job would
// otherwise hold millions. Spans past the cap are counted, not kept.
const maxSpans = 20000

// span is one benchmark-side trace event around a call into the program.
type span struct {
	Name  string `json:"name"`
	Tid   int    `json:"tid"`
	Start int64  `json:"start_unix_ns"`
	End   int64  `json:"end_unix_ns"`
	// Trial ties the spans of one trial together across processes.
	Trial int `json:"trial"`
}

// recorder keeps spans in memory until the run writes them out. Recording
// claims a slot with one atomic add, so concurrent actors do not serialize
// on it. A nil recorder records nothing, which is how the untraced run skips
// tracing.
type recorder struct {
	trial int
	next  atomic.Int64
	spans []span
}

func newRecorder(trial int) *recorder {
	return &recorder{trial: trial, spans: make([]span, maxSpans)}
}

// begin opens a span; the returned func closes it.
func (r *recorder) begin(name string, tid int) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now().UnixNano()
	return func() { r.add(name, tid, start, time.Now().UnixNano()) }
}

func (r *recorder) add(name string, tid int, start, end int64) {
	if r == nil {
		return
	}
	if i := r.next.Add(1) - 1; i < maxSpans {
		r.spans[i] = span{Name: name, Tid: tid, Start: start, End: end, Trial: r.trial}
	}
}

// take returns the kept spans and how many were dropped. Call it once every
// recording goroutine has finished.
func (r *recorder) take() ([]span, int) {
	if r == nil {
		return nil, 0
	}
	n := int(r.next.Load())
	if n > maxSpans {
		return r.spans, n - maxSpans
	}
	return r.spans[:n], 0
}
