package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
)

// Bus fans typed trace events out to subscribers (JSONL exporters,
// per-test assertions).
//
// A nil *Bus is a valid disabled bus: every method is nil-receiver-
// safe. Emitting components keep a *Bus field that is nil when tracing
// is off, and guard construction of event payloads with Enabled():
//
//	if bus.Enabled() {
//		bus.Emit(telemetry.Event{At: now, Kind: telemetry.EvDrop, ...})
//	}
//
// so a disabled bus costs exactly one pointer-and-length check on the
// hot path (verified by BenchmarkTelemetryDisabled).
type Bus struct {
	subs []func(*Event)
}

// NewBus returns an enabled bus with no subscribers. With zero
// subscribers it still reports Enabled()==false, so emitters skip
// payload construction until someone actually listens.
func NewBus() *Bus { return &Bus{} }

// Enabled reports whether emitting is worthwhile: the bus exists and
// has at least one subscriber. Safe on a nil receiver.
func (b *Bus) Enabled() bool { return b != nil && len(b.subs) > 0 }

// Subscribe registers fn to receive every subsequent event. Safe on a
// nil receiver (no-op). Subscribers run synchronously in subscription
// order; they must not re-enter Emit.
func (b *Bus) Subscribe(fn func(*Event)) {
	if b == nil {
		return
	}
	b.subs = append(b.subs, fn)
}

// Emit delivers the event to all subscribers. Safe on a nil receiver.
// The event is passed by pointer to one stack value; subscribers that
// retain it must copy it.
func (b *Bus) Emit(ev Event) {
	if b == nil {
		return
	}
	for _, fn := range b.subs {
		fn(&ev)
	}
}

// JSONLWriter streams events as one JSON object per line — the
// --trace export format. Encoding uses fixed struct field order, so
// deterministic runs produce byte-identical files.
type JSONLWriter struct {
	bw  *bufio.Writer
	err error
}

// NewJSONLWriter wraps w. Subscribe the writer's Write method to a
// bus, then call Flush (and check its error) when the run completes.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{bw: bufio.NewWriter(w)}
}

// Write encodes one event as a JSON line. The first encoding or I/O
// error sticks and suppresses further output.
func (j *JSONLWriter) Write(ev *Event) {
	if j.err != nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.bw.Write(data); err != nil {
		j.err = err
		return
	}
	j.err = j.bw.WriteByte('\n')
}

// Flush drains buffered output and returns the first error seen.
func (j *JSONLWriter) Flush() error {
	if j.err != nil {
		return j.err
	}
	return j.bw.Flush()
}
