package fault

import (
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// runCtx returns a run context whose networks are audited when the test
// ends.
func runCtx(t *testing.T) *harness.Ctx {
	ctx := &harness.Ctx{}
	t.Cleanup(func() {
		if err := ctx.Audit(); err != nil {
			t.Error(err)
		}
	})
	return ctx
}

// testNet builds a tiny manual topology: hosts a, b around router r.
func testNet(t *testing.T) (*netsim.Network, *netsim.Link, *netsim.Link) {
	t.Helper()
	n := runCtx(t).Adopt("unit", netsim.New(1))
	r := n.NewDevice("r", netsim.DeviceConfig{})
	la := n.Connect(n.NewHost("a"), r, netsim.LinkConfig{Rate: units.Gbps, Delay: time.Millisecond})
	lb := n.Connect(n.NewHost("b"), r, netsim.LinkConfig{Rate: units.Gbps, Delay: time.Millisecond})
	n.ComputeRoutes()
	return n, la, lb
}

// scenarioWith wraps faults in a minimal valid scenario; the star
// topology spec is unused because the injector resolves targets against
// the manual network.
func scenarioWith(faults ...FaultSpec) *Scenario {
	return &Scenario{
		Name:     "unit",
		Topology: Topology{Kind: "star"},
		Duration: Dur(time.Minute),
		Faults:   faults,
	}
}

func TestInjectorSoftFailureOnsetAndClear(t *testing.T) {
	n, la, _ := testNet(t)
	sc := scenarioWith(FaultSpec{
		Type: KindSoftFailure, Link: "a<->r",
		Onset: Dur(time.Second), Duration: Dur(2 * time.Second),
		Loss: &LossSpec{Model: LossRandom, P: 0.5},
	})
	inj, err := NewInjector(n, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()

	if la.Loss != nil {
		t.Fatal("loss model installed before onset")
	}
	n.RunFor(1500 * time.Millisecond)
	if _, ok := la.Loss.(*overlay); !ok {
		t.Fatalf("at t=1.5s link loss = %T, want *overlay", la.Loss)
	}
	n.RunFor(2 * time.Second)
	if la.Loss != nil {
		t.Fatalf("after clear link loss = %T, want nil (restored)", la.Loss)
	}

	rec := inj.Injected()[0]
	if rec.OnsetAt != sim.Time(time.Second) || rec.ClearedAt != sim.Time(3*time.Second) {
		t.Fatalf("onset/clear = %v/%v", rec.OnsetAt, rec.ClearedAt)
	}
	if rec.Target != "a<->r" {
		t.Fatalf("target = %q", rec.Target)
	}
}

func TestInjectorSoftFailurePreservesBaseModel(t *testing.T) {
	n, la, _ := testNet(t)
	base := netsim.RandomLoss{P: 0.001}
	la.Loss = base
	sc := scenarioWith(FaultSpec{
		Type: KindSoftFailure, Link: "r<->a", // reversed orientation resolves too
		Onset: Dur(time.Second), Duration: Dur(time.Second),
		Loss: &LossSpec{Model: LossPeriodic, N: 10},
	})
	inj, err := NewInjector(n, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	n.RunFor(1500 * time.Millisecond)
	ov, ok := la.Loss.(*overlay)
	if !ok || ov.base != netsim.LossModel(base) {
		t.Fatalf("overlay should wrap the pre-fault model, got %T", la.Loss)
	}
	n.RunFor(time.Second)
	if la.Loss != netsim.LossModel(base) {
		t.Fatalf("clear should restore the pre-fault model, got %T", la.Loss)
	}
}

func TestInjectorLinkFlapSchedule(t *testing.T) {
	n, la, _ := testNet(t)
	sc := scenarioWith(FaultSpec{
		Type: KindLinkFlap, Link: "a<->r",
		Onset: Dur(time.Second), Duration: Dur(500 * time.Millisecond),
		Count: 2, Period: Dur(2 * time.Second),
	})
	inj, err := NewInjector(n, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	expect := []struct {
		at   time.Duration
		down bool
	}{
		{900 * time.Millisecond, false},
		{1200 * time.Millisecond, true},
		{1600 * time.Millisecond, false},
		{3200 * time.Millisecond, true},
		{3600 * time.Millisecond, false},
	}
	prev := time.Duration(0)
	for _, e := range expect {
		n.RunFor(e.at - prev)
		prev = e.at
		if la.Down() != e.down {
			t.Fatalf("at %v down = %v, want %v", e.at, la.Down(), e.down)
		}
	}
	rec := inj.Injected()[0]
	if rec.OnsetAt != sim.Time(time.Second) || rec.ClearedAt != sim.Time(3500*time.Millisecond) {
		t.Fatalf("onset/clear = %v/%v", rec.OnsetAt, rec.ClearedAt)
	}
}

func TestInjectorBufferShrinkAndRestore(t *testing.T) {
	n, _, _ := testNet(t)
	dev := n.Node("r").(*netsim.Device)
	before := make([]units.ByteSize, 0, 2)
	for _, p := range dev.Ports() {
		before = append(before, p.QueueCap)
	}
	sc := scenarioWith(FaultSpec{
		Type: KindBufferShrink, Node: "r",
		Onset: Dur(time.Second), Duration: Dur(time.Second),
		Factor: 0.25,
	})
	inj, err := NewInjector(n, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	n.RunFor(1500 * time.Millisecond)
	for i, p := range dev.Ports() {
		if want := units.ByteSize(float64(before[i]) * 0.25); p.QueueCap != want {
			t.Fatalf("port %d cap during fault = %v, want %v", i, p.QueueCap, want)
		}
	}
	n.RunFor(time.Second)
	for i, p := range dev.Ports() {
		if p.QueueCap != before[i] {
			t.Fatalf("port %d cap after clear = %v, want %v", i, p.QueueCap, before[i])
		}
	}
}

func TestInjectorMonitorOutage(t *testing.T) {
	n, la, lb := testNet(t)
	sc := scenarioWith(FaultSpec{
		Type: KindMonitorOutage, Node: "a",
		Onset: Dur(time.Second), Duration: Dur(time.Second),
	})
	inj, err := NewInjector(n, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	n.RunFor(1500 * time.Millisecond)
	if !la.Down() {
		t.Fatal("host link should be down during the outage")
	}
	if lb.Down() {
		t.Fatal("unrelated link must stay up")
	}
	n.RunFor(time.Second)
	if la.Down() {
		t.Fatal("host link should be restored after the outage")
	}
}

func TestInjectorRejectsUnknownTargets(t *testing.T) {
	n, _, _ := testNet(t)
	if _, err := NewInjector(n, scenarioWith(FaultSpec{
		Type: KindLinkFlap, Link: "a<->z",
		Onset: Dur(time.Second), Duration: Dur(time.Second),
	}), nil); err == nil {
		t.Fatal("expected an error for an unknown link")
	}
	if _, err := NewInjector(n, scenarioWith(FaultSpec{
		Type: KindMonitorOutage, Node: "z",
		Onset: Dur(time.Second), Duration: Dur(time.Second),
	}), nil); err == nil {
		t.Fatal("expected an error for an unknown node")
	}
	if _, err := NewInjector(n, scenarioWith(FaultSpec{
		Type: KindBufferShrink, Node: "a", Factor: 0.5,
		Onset: Dur(time.Second), Duration: Dur(time.Second),
	}), nil); err == nil {
		t.Fatal("expected an error for buffer-shrink on a host")
	}
}

func TestInjectorEmitsTelemetryEvents(t *testing.T) {
	n, _, _ := testNet(t)
	tele := telemetry.New()
	var events []telemetry.Event
	tele.Bus.Subscribe(func(e *telemetry.Event) {
		if e.Kind == telemetry.EvFaultOnset || e.Kind == telemetry.EvFaultClear {
			events = append(events, *e)
		}
	})
	n.AttachTelemetry(tele)

	sc := scenarioWith(FaultSpec{
		Type: KindLinkFlap, Link: "a<->r",
		Onset: Dur(time.Second), Duration: Dur(500 * time.Millisecond),
		Count: 2, Period: Dur(2 * time.Second),
	})
	inj, err := NewInjector(n, sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.Start()
	n.RunFor(10 * time.Second)

	if len(events) != 4 {
		t.Fatalf("got %d fault events, want 4 (2 flaps × onset+clear): %v", len(events), events)
	}
	for i, e := range events {
		wantKind := telemetry.EvFaultOnset
		if i%2 == 1 {
			wantKind = telemetry.EvFaultClear
		}
		if e.Kind != wantKind || e.Node != "a<->r" || e.Reason != KindLinkFlap || e.Detail != "link-flap#0" {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

// TestInjectorDeterministic runs the same lossy scenario twice and
// demands identical drop ledgers — the per-fault seeded RNG contract.
func TestInjectorDeterministic(t *testing.T) {
	run := func() (uint64, []Injected) {
		n, _, _ := testNet(t)
		sc := scenarioWith(FaultSpec{
			Type: KindSoftFailure, Link: "a<->r",
			Onset: Dur(500 * time.Millisecond), Duration: Dur(5 * time.Second),
			Loss: &LossSpec{Model: LossGilbert, PBad: 0.5, GoodToBad: 0.01, BadToGood: 0.1},
		})
		inj, err := NewInjector(n, sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		inj.Start()
		// Steady probe traffic across the faulty link.
		h := n.Host("a")
		n.Sched.Every(time.Millisecond, func() {
			h.Send(&netsim.Packet{
				Flow: netsim.FlowKey{Src: "a", Dst: "b", SrcPort: 9, DstPort: 9, Proto: netsim.ProtoUDP},
				Size: 100,
			})
		})
		n.RunFor(8 * time.Second)
		return n.Conservation().Dropped, inj.Injected()
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 {
		t.Fatalf("drop totals differ between identical runs: %d vs %d", d1, d2)
	}
	if d1 == 0 {
		t.Fatal("expected the gilbert fault to drop something")
	}
	if len(r1) != len(r2) || r1[0] != r2[0] {
		t.Fatalf("injected records differ: %+v vs %+v", r1, r2)
	}
}
