package telemetry

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs", Labels{"node": "a"})
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("counter = %v, want 3", c.Value())
	}
	if r.Counter("reqs", Labels{"node": "a"}) != c {
		t.Error("re-registration did not return the same counter")
	}

	g := r.Gauge("depth", nil)
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %v, want 5", g.Value())
	}

	h := r.Histogram("lat", nil, []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 55.55 {
		t.Errorf("hist count=%d sum=%v", h.Count(), h.Sum())
	}
	snap := r.Snapshot(0)
	s, ok := snap.Get("lat", nil)
	if !ok {
		t.Fatal("histogram sample missing")
	}
	want := []uint64{1, 2, 3} // cumulative
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %v count=%d, want %d", b.LE, b.Count, want[i])
		}
	}
}

func TestCounterDecreasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	NewRegistry().Counter("c", nil).Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", nil)
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x", nil)
}

func TestLabelsCanonicalOrder(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("m", Labels{"a": "1", "b": "2"})
	c2 := r.Counter("m", Labels{"b": "2", "a": "1"})
	if c1 != c2 {
		t.Error("label order changed series identity")
	}
}

func TestSnapshotSortedAndCollected(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz", nil).Inc()
	r.GaugeFunc("aa", nil, func() float64 { return 42 })
	r.RegisterCollector("extra", func(emit EmitFunc) {
		emit("mm", Labels{"k": "v"}, 9)
	})
	snap := r.Snapshot(sim.Time(5 * time.Second))
	if snap.At != sim.Time(5*time.Second) {
		t.Errorf("At = %v", snap.At)
	}
	var names []string
	for _, s := range snap.Samples {
		names = append(names, s.Name)
	}
	got := strings.Join(names, ",")
	if got != "aa,mm,zz" {
		t.Errorf("sample order = %q, want aa,mm,zz", got)
	}
	if s, ok := snap.Get("mm", Labels{"k": "v"}); !ok || s.Value != 9 {
		t.Errorf("collector sample = %+v ok=%v", s, ok)
	}
}

func TestCollectorLastWriterWins(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector("a", func(emit EmitFunc) { emit("dup", nil, 1) })
	r.RegisterCollector("b", func(emit EmitFunc) { emit("dup", nil, 2) })
	snap := r.Snapshot(0)
	if s, _ := snap.Get("dup", nil); s.Value != 2 {
		t.Errorf("dup = %v, want 2 (collector keys sort a<b)", s.Value)
	}
	// Re-registering under the same key replaces, not appends.
	r.RegisterCollector("b", func(emit EmitFunc) { emit("dup", nil, 3) })
	if s, _ := r.Snapshot(0).Get("dup", nil); s.Value != 3 {
		t.Errorf("replaced collector: dup = %v, want 3", s.Value)
	}
}

// buildMetricsDoc runs one identical instrumented mini-"run" and
// returns the full metrics JSON export.
func buildMetricsDoc(t *testing.T) []byte {
	t.Helper()
	sched := sim.New()
	tele := New()
	// Multi-key label sets exercise the sorted-key marshaling; several
	// series exercise snapshot ordering.
	tele.Registry.Counter("pkts", Labels{"node": "r1", "port": "0", "dir": "tx"}).Add(12)
	tele.Registry.Gauge("depth", Labels{"b": "2", "a": "1", "c": "3"}).Set(7)
	tele.Registry.Histogram("lat", Labels{"flow": "h1:1>h2:2"}, []float64{0.1, 1}).Observe(0.5)
	tele.StartSampler(sched, time.Second)
	sched.RunFor(2500 * time.Millisecond)
	var buf strings.Builder
	if err := tele.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return []byte(buf.String())
}

// TestMetricsJSONByteIdentical is the regression gate behind
// Labels.MarshalJSON: two identical runs must export byte-identical
// metrics JSON, with label keys in sorted order — not because
// encoding/json happens to sort map keys, but by explicit contract.
func TestMetricsJSONByteIdentical(t *testing.T) {
	a, b := buildMetricsDoc(t), buildMetricsDoc(t)
	if string(a) != string(b) {
		t.Fatalf("two identical runs exported different metrics JSON:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(string(a), `"labels":{"a":"1","b":"2","c":"3"}`) {
		t.Errorf("labels not emitted in sorted key order:\n%s", a)
	}
	if !strings.Contains(string(a), `"labels":{"dir":"tx","node":"r1","port":"0"}`) {
		t.Errorf("multi-key labels not sorted:\n%s", a)
	}
}

func TestLabelsMarshalNil(t *testing.T) {
	var l Labels
	got, err := l.MarshalJSON()
	if err != nil || string(got) != "null" {
		t.Errorf("nil labels marshal = %s, %v", got, err)
	}
}

func TestSamplerOnSimClock(t *testing.T) {
	sched := sim.New()
	tele := New()
	g := tele.Registry.Gauge("v", nil)
	var seen []sim.Time
	tele.OnSample(func(s *Snapshot) { seen = append(seen, s.At) })
	sam := tele.StartSampler(sched, time.Second)
	sched.After(1500*time.Millisecond, func() { g.Set(1) })
	sched.RunFor(3500 * time.Millisecond)
	if len(tele.Snapshots) != 3 {
		t.Fatalf("snapshots = %d, want 3", len(tele.Snapshots))
	}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if seen[i] != sim.Time(want) {
			t.Errorf("sample %d at %v, want %v", i, seen[i], want)
		}
	}
	if s, _ := tele.Snapshots[0].Get("v", nil); s.Value != 0 {
		t.Errorf("first snapshot v = %v, want 0", s.Value)
	}
	if s, _ := tele.Snapshots[1].Get("v", nil); s.Value != 1 {
		t.Errorf("second snapshot v = %v, want 1", s.Value)
	}
	sam.Stop()
	sched.RunFor(5 * time.Second)
	if len(tele.Snapshots) != 3 {
		t.Errorf("sampler kept running after Stop: %d snapshots", len(tele.Snapshots))
	}
}

// TestInstrumentScheduler schedules the same events on one scheduler
// and spread over two (a network's control and shard schedulers): the
// exported series are sums, so both layouts export the same values.
func TestInstrumentScheduler(t *testing.T) {
	compA, compB := sim.TagFor("compA"), sim.TagFor("compB")
	for _, n := range []int{1, 2} {
		scheds := []*sim.Scheduler{sim.New()}
		if n == 2 {
			scheds = append(scheds, sim.New())
		}
		r := NewRegistry()
		InstrumentScheduler(r, func() []*sim.Scheduler { return scheds })
		last := scheds[len(scheds)-1]
		scheds[0].AfterTag(compA, time.Second, func() {})
		last.AfterTag(compA, 2*time.Second, func() {})
		last.AfterTag(compB, time.Second, func() {})
		scheds[0].After(time.Second, func() {}) // untagged
		last.After(3*time.Second, func() {})    // still pending at the first snapshot

		scheds[0].RunUntil(sim.Time(2 * time.Second))
		last.RunUntil(sim.Time(2 * time.Second))
		snap := r.Snapshot(sim.Time(2 * time.Second))
		if s, _ := snap.Get("sim_events_processed", nil); s.Value != 4 {
			t.Errorf("%d schedulers: events processed = %v, want 4", n, s.Value)
		}
		if s, _ := snap.Get("sim_events_by_component", Labels{"component": "compA"}); s.Value != 2 {
			t.Errorf("%d schedulers: compA events = %v, want 2", n, s.Value)
		}
		if s, _ := snap.Get("sim_events_by_component", Labels{"component": "compB"}); s.Value != 1 {
			t.Errorf("%d schedulers: compB events = %v, want 1", n, s.Value)
		}
		if s, _ := snap.Get("sim_queue_depth", nil); s.Value != 1 {
			t.Errorf("%d schedulers: queue depth = %v, want 1", n, s.Value)
		}

		last.Run()
		snap = r.Snapshot(last.Now())
		if s, _ := snap.Get("sim_events_processed", nil); s.Value != 5 {
			t.Errorf("%d schedulers: events processed after draining = %v, want 5", n, s.Value)
		}
		if s, _ := snap.Get("sim_queue_depth", nil); s.Value != 0 {
			t.Errorf("%d schedulers: queue depth after draining = %v, want 0", n, s.Value)
		}
	}
}
