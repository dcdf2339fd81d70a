package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/netsim"
)

// span is one timed call the benchmark made into the layers. Spans of one
// run share Rep; every span but "rep" has the run's "rep" span as its
// parent.
type span struct {
	Name    string `json:"name"`
	Rep     int    `json:"rep"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return time.Duration(s.EndNS - s.StartNS).Seconds() }

// tracer records spans around the benchmark's calls, keeping them in
// memory until the run ends. Each call also runs under a pprof label
// "span" = name, so CPU samples taken inside build and install are
// charged to the topo and shard layers. A nil tracer records nothing.
type tracer struct {
	origin   time.Time
	rep      int
	repStart time.Duration
	spans    []span

	pendingSum float64 // Pending() summed over schedulers, at slice ends
	pendingN   int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now()}
}

func (t *tracer) beginRep() {
	if t == nil {
		return
	}
	t.rep++
	t.repStart = time.Since(t.origin)
}

func (t *tracer) endRep() {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: "rep", Rep: t.rep, StartNS: int64(t.repStart), EndNS: int64(time.Since(t.origin))})
}

// span runs fn, recording it as a child of the current run.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Since(t.origin)
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { fn() })
	t.spans = append(t.spans, span{Name: name, Rep: t.rep, Parent: "rep", StartNS: int64(start), EndNS: int64(time.Since(t.origin))})
}

// samplePending records the scheduler queue depth at a slice boundary.
func (t *tracer) samplePending(n *netsim.Network) {
	if t == nil {
		return
	}
	p := n.Sched.Pending()
	for _, s := range n.ShardSchedulers() {
		p += s.Pending()
	}
	t.pendingSum += float64(p)
	t.pendingN++
}

// meanSeconds is the mean duration of the named spans per run.
func (t *tracer) meanSeconds(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.seconds()
		}
	}
	if t.rep == 0 {
		return 0
	}
	return sum / float64(t.rep)
}

func (t *tracer) writeSpans(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
