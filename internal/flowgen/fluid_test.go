package flowgen

import (
	"testing"
	"time"

	"repro/internal/fluid"
	"repro/internal/units"
)

// TestBusinessNamedStream: every generator draws from an RNG stream
// derived from its name, the empty name included, so differently named
// generators draw different realizations.
func TestBusinessNamedStream(t *testing.T) {
	run := func(name string) (int, units.ByteSize) {
		n, srv, clients := campus()
		b := StartBusiness(srv, clients, Business{Name: name, FlowsPerSecond: 50}, 7)
		n.RunFor(5 * time.Second)
		return b.Completed, b.Bytes
	}
	c1, b1 := run("")
	c2, b2 := run("")
	if c1 != c2 || b1 != b2 {
		t.Fatalf("unnamed generator not deterministic: (%d,%v) vs (%d,%v)", c1, b1, c2, b2)
	}
	n1, nb1 := run("procurement")
	n2, nb2 := run("procurement")
	if n1 != n2 || nb1 != nb2 {
		t.Fatalf("named generator not deterministic: (%d,%v) vs (%d,%v)", n1, nb1, n2, nb2)
	}
	// Different stream ⇒ a different (but still valid) realization.
	if n1 == c1 && nb1 == b1 {
		t.Errorf("named stream identical to the unnamed stream: completed %d bytes %v", n1, nb1)
	}
	// And two different names diverge from each other too.
	m1, mb1 := run("email")
	if m1 == n1 && mb1 == nb1 {
		t.Errorf("streams %q and %q coincide: completed %d bytes %v", "email", "procurement", m1, mb1)
	}
}

// TestBusinessFluid: the fluid twin wires one aggregate per client,
// splits rate and population evenly, and carries the offered load.
func TestBusinessFluid(t *testing.T) {
	n, srv, clients := campus()
	eng := fluid.New(n, fluid.Config{})
	aggs, err := StartBusinessFluid(eng, srv, clients, BusinessFluid{
		Name:           "bg",
		FlowsPerSecond: 100,
		Flows:          10, // not divisible by 4: remainder spread over first clients
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != len(clients) {
		t.Fatalf("got %d aggregates, want %d", len(aggs), len(clients))
	}
	eng.Start()
	n.RunFor(10 * time.Second)
	// 100 flows/s × 100 KB × 10 s = 100 MB offered; clean path ⇒ delivered.
	if off := FluidOffered(aggs); off < 99*units.MB || off > 101*units.MB {
		t.Errorf("offered = %v, want ~100MB", off)
	}
	if del := FluidDelivered(aggs); del < 99*units.MB {
		t.Errorf("delivered = %v, want ~100MB", del)
	}
	if errs := n.AuditInvariants(); len(errs) != 0 {
		t.Fatalf("audit: %v", errs)
	}
}

// TestBusinessFluidErrors: misconfiguration fails loudly.
func TestBusinessFluidErrors(t *testing.T) {
	n, srv, clients := campus()
	eng := fluid.New(n, fluid.Config{})
	if _, err := StartBusinessFluid(eng, srv, clients, BusinessFluid{FlowsPerSecond: 1}); err == nil {
		t.Error("nameless BusinessFluid accepted")
	}
	if _, err := StartBusinessFluid(eng, srv, nil, BusinessFluid{Name: "x"}); err == nil {
		t.Error("clientless BusinessFluid accepted")
	}
}
