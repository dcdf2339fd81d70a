package fluid

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/netsim"
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

// TestValidateScenarios is the agreement gate: every canonical scenario
// must match its all-packet twin within the documented tolerance.
func TestValidateScenarios(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r := Validate(runCtx(t), sc)
			t.Logf("%s: elephant packet %v hybrid %v (err %.1f%%); bg bytes packet %v hybrid %v (err %.1f%%); loss packet %.3f hybrid %.3f; events packet %d hybrid %d",
				sc.Name, r.Packet.Elephant, r.Hybrid.Elephant, 100*r.ElephantErr,
				r.Packet.BgBytes, r.Hybrid.BgBytes, 100*r.BackgroundErr,
				r.Packet.BgLoss, r.Hybrid.BgLoss, r.Packet.Events, r.Hybrid.Events)
			for _, f := range r.Failures(DefaultTolerance()) {
				t.Errorf("%s: %s", sc.Name, f)
			}
		})
	}
}

// hybridFingerprint renders everything observable about a hybrid run
// into one string for byte-identical comparisons.
func hybridFingerprint(st ModeStats, eng *Engine) string {
	out := fmt.Sprintf("elephant=%d bg=%d loss=%.9f ticks=%d\n",
		int64(st.Elephant), int64(st.BgBytes), st.BgLoss, eng.Ticks())
	for _, a := range eng.Aggregates() {
		out += fmt.Sprintf("%s offered=%d delivered=%d loss=%.9f\n",
			a.Name(), int64(a.OfferedBytes()), int64(a.DeliveredBytes()), a.LossRate())
	}
	return out
}

// TestHybridDeterministic: same scenario, same seed, twice → identical
// down to the event count.
func TestHybridDeterministic(t *testing.T) {
	sc := Scenarios()[1]
	sc.Duration = 2 * time.Second
	st1, eng1 := RunHybrid(runCtx(t), sc)
	st2, eng2 := RunHybrid(runCtx(t), sc)
	if a, b := hybridFingerprint(st1, eng1), hybridFingerprint(st2, eng2); a != b {
		t.Fatalf("hybrid run not deterministic:\n%s\nvs\n%s", a, b)
	}
	if st1.Events != st2.Events {
		t.Fatalf("event counts differ: %d vs %d", st1.Events, st2.Events)
	}
}

// TestElephantSeesBackground: the packet-level elephant must lose
// throughput to fluid background sharing its bottleneck — the
// fluid→packet half of the coupling.
func TestElephantSeesBackground(t *testing.T) {
	sc := Scenarios()[1] // saturating background
	sc.Duration = 3 * time.Second
	loaded, _ := RunHybrid(runCtx(t), sc)
	sc.FlowsPerSecond = 0
	sc.Flows = 0
	sc.Clients = 1 // still build the topology, just no load
	idle, _ := RunHybrid(runCtx(t), sc)
	if loaded.Elephant >= idle.Elephant {
		t.Fatalf("elephant unaffected by background: %v loaded vs %v idle", loaded.Elephant, idle.Elephant)
	}
	if loaded.Elephant > idle.Elephant*3/4 {
		t.Errorf("saturating background should cost the elephant >25%%: %v loaded vs %v idle", loaded.Elephant, idle.Elephant)
	}
}

// TestBackgroundSeesElephant: fluid aggregates must see loss pressure
// when their demand alone exceeds the bottleneck — the feedback half
// that makes overload visible to the Mathis model.
func TestBackgroundSeesElephant(t *testing.T) {
	sc := Scenario{
		Name: "overload", Clients: 4, FlowsPerSecond: 400,
		MeanSize: 250 * units.KB, Flows: 0, // uncapped population: inelastic overload
		Bottleneck: 300 * units.Mbps, Delay: 2 * time.Millisecond,
		Elephant: false, Duration: 3 * time.Second, Seed: 7,
	}
	st, eng := RunHybrid(runCtx(t), sc)
	if st.BgLoss < 0.1 {
		t.Fatalf("800 Mbps offered over a 300 Mbps bottleneck should lose >10%%, got %.3f", st.BgLoss)
	}
	for _, a := range eng.Aggregates() {
		if a.LossRate() <= 0 {
			t.Errorf("aggregate %s saw no loss in overload", a.Name())
		}
	}
}

// TestFluidLedgerImbalanceFails is the auditor coverage for the fluid
// byte column: perturbing any port's column by a single byte must fail
// AuditInvariants with the port named as a fluid site.
func TestFluidLedgerImbalanceFails(t *testing.T) {
	sc := Scenarios()[0]
	sc.Duration = time.Second
	// Not audited at cleanup: the test unbalances the ledger on purpose.
	s := buildScenario(&harness.Ctx{}, "hybrid", sc)
	eng := New(s.net, Config{})
	if _, err := eng.Add(AggregateConfig{
		Name: "bg", Src: s.clients[0].Name(), Dst: s.bgServer.Name(),
		FlowsPerSecond: sc.FlowsPerSecond, Flows: sc.Flows,
	}); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	s.net.RunFor(sc.Duration)
	if errs := s.net.AuditInvariants(); len(errs) != 0 {
		t.Fatalf("clean hybrid run failed audit: %v", errs)
	}
	var q *netsim.FluidQueue
	var site string
	for _, name := range s.net.NodeNames() {
		for _, p := range s.net.Node(name).Ports() {
			if f := p.Fluid(); f != nil && q == nil {
				q, site = f, name
			}
		}
	}
	if q == nil {
		t.Fatal("no fluid queue attached")
	}
	q.Offered++ // the single lost byte
	errs := s.net.AuditInvariants()
	if len(errs) == 0 {
		t.Fatalf("one-byte fluid imbalance at %s passed the audit", site)
	}
	found := false
	for _, err := range errs {
		if containsAll(err.Error(), site, "(fluid)", "Δ 1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("audit errors do not name the fluid site %q: %v", site, errs)
	}
	q.Offered-- // restore; the column must balance again
	if errs := s.net.AuditInvariants(); len(errs) != 0 {
		t.Fatalf("restored ledger still fails: %v", errs)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAddErrors: configuration mistakes fail loudly at Add time.
func TestAddErrors(t *testing.T) {
	sc := Scenarios()[0]
	s := buildScenario(runCtx(t), "hybrid", sc)
	eng := New(s.net, Config{})
	if _, err := eng.Add(AggregateConfig{Src: "client00", Dst: "bg-server"}); err == nil {
		t.Error("nameless aggregate accepted")
	}
	if _, err := eng.Add(AggregateConfig{Name: "a", Src: "client00", Dst: "nowhere"}); err == nil {
		t.Error("pathless aggregate accepted")
	}
	if _, err := eng.Add(AggregateConfig{Name: "a", Src: "client00", Dst: "bg-server"}); err != nil {
		t.Errorf("valid aggregate rejected: %v", err)
	}
	if _, err := eng.Add(AggregateConfig{Name: "a", Src: "client01", Dst: "bg-server"}); err == nil {
		t.Error("duplicate name accepted")
	}
	eng.Start()
	if _, err := eng.Add(AggregateConfig{Name: "b", Src: "client01", Dst: "bg-server"}); err == nil {
		t.Error("Add after Start accepted")
	}
	eng.Stop()
}
