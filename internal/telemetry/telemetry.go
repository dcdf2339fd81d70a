// Package telemetry is the simulator's unified measurement plane: a
// metrics registry, a typed trace-event bus, and a registry sampler,
// all clocked on simulation time.
//
// The paper's operational argument (§3.3) is that a Science DMZ works
// only when it is observable: soft failures are invisible without
// continuous measurement. The simulator mirrors that stance about
// itself — every queue, link, device, and TCP sender can publish into
// one registry and one event bus, and whole runs can be exported as
// deterministic JSON/JSONL for offline analysis.
//
// Three design rules govern the package:
//
//   - Simulation time only. Snapshots and events are stamped with
//     sim.Time by their emitters; nothing in this package reads the
//     wall clock, so instrumented runs stay bit-for-bit reproducible.
//
//   - Pay for what you use. A nil *Bus is a valid, disabled bus: every
//     method is nil-receiver-safe and Enabled() compiles down to a
//     pointer check, so uninstrumented hot paths cost one branch.
//
//   - Deterministic export. Snapshot samples are sorted by series
//     identity and serialized with fixed field order, so two identical
//     runs produce byte-identical output.
//
//   - Observation never changes results. Attaching a plane, and how
//     often it samples, leaves every simulated outcome as it is: model
//     code never takes its timebase or behaviour from a sampler.
//
// A Telemetry value bundles the three pieces for one simulation run;
// netsim.Network.AttachTelemetry wires a network into it.
package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"repro/internal/sim"
)

// Telemetry bundles a registry, an event bus, and the snapshots taken
// by samplers for one instrumented run. Create with New; attach to
// networks via netsim's AttachTelemetry, which a run context
// (harness.Ctx) calls for every network it adopts.
type Telemetry struct {
	Registry *Registry
	Bus      *Bus

	// SampleInterval, when positive, makes consumers (netsim's
	// AttachTelemetry) start a registry sampler at this period on each
	// attached network's scheduler.
	SampleInterval time.Duration

	// Snapshots accumulates every registry snapshot taken by samplers
	// created through StartSampler, in sample order.
	Snapshots []*Snapshot

	// onSample hooks run on every snapshot from any sampler started
	// through StartSampler — including samplers created later (CLIs
	// register hooks before the experiment builds its networks).
	onSample []func(*Snapshot)
}

// New returns an empty telemetry plane: fresh registry, enabled bus
// with no subscribers yet.
func New() *Telemetry {
	return &Telemetry{Registry: NewRegistry(), Bus: NewBus()}
}

// StartSampler begins periodic registry sampling on the scheduler,
// appending snapshots to t.Snapshots.
func (t *Telemetry) StartSampler(sched *sim.Scheduler, interval time.Duration) *Sampler {
	return newSampler(t, sched, interval)
}

// OnSample registers fn to run on every snapshot taken by any sampler
// started through StartSampler, present or future. Samplers created
// per-network (netsim.AttachTelemetry) come and go with their
// networks; telemetry-level hooks outlive them, which is what the
// live-observability publisher needs.
func (t *Telemetry) OnSample(fn func(*Snapshot)) {
	t.onSample = append(t.onSample, fn)
}

// WriteMetricsJSON writes all accumulated snapshots as one JSON
// document: {"snapshots": [...]}. Output is deterministic for
// deterministic runs.
func (t *Telemetry) WriteMetricsJSON(w io.Writer) error {
	doc := struct {
		Snapshots []*Snapshot `json:"snapshots"`
	}{Snapshots: t.Snapshots}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// InstrumentScheduler registers the event kernel's health metrics in
// the registry, summed over the schedulers scheds returns at snapshot
// time (a network's control and shard schedulers): pending event-queue
// depth, total events processed, and per-component event counts (for
// events scheduled through the tagged scheduling APIs). Every event
// executes on exactly one scheduler, so the sums do not depend on how
// many there are. Re-instrumenting replaces the previous series.
func InstrumentScheduler(r *Registry, scheds func() []*sim.Scheduler) {
	r.GaugeFunc("sim_queue_depth", nil, func() float64 {
		var n int
		for _, s := range scheds() {
			n += s.Pending()
		}
		return float64(n)
	})
	r.GaugeFunc("sim_events_processed", nil, func() float64 {
		var n uint64
		for _, s := range scheds() {
			n += s.Processed
		}
		return float64(n)
	})
	r.RegisterCollector("sim.components", func(emit EmitFunc) {
		byTag := make(map[string]uint64)
		var tags []string
		for _, s := range scheds() {
			for _, tc := range s.EventCounts() {
				if _, ok := byTag[tc.Tag]; !ok {
					tags = append(tags, tc.Tag)
				}
				byTag[tc.Tag] += tc.Count
			}
		}
		sort.Strings(tags)
		for _, tag := range tags {
			emit("sim_events_by_component", Labels{"component": tag}, float64(byTag[tag]))
		}
	})
}
