package firewall

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// haTopo builds the Figure 5 enterprise edge:
//
//	remote -- border --(fw1)-- ent -- office
//	               \---(fw2)---/
//
// with default routes via fw1.
func haTopo(t *testing.T) (*netsim.Network, *netsim.Host, *netsim.Host, *HAPair, *netsim.Link) {
	n := auditedNet(t)
	remote := n.NewHost("remote")
	office := n.NewHost("office")
	border := n.NewDevice("border", netsim.DeviceConfig{EgressBuffer: 16 * units.MB})
	ent := n.NewDevice("ent", netsim.DeviceConfig{EgressBuffer: 8 * units.MB})
	fw1 := New(n, "fw1", Config{})
	fw2 := New(n, "fw2", Config{})

	n.Connect(remote, border, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 2 * time.Millisecond})
	b1 := n.Connect(border, fw1, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	f1e := n.Connect(fw1, ent, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	b2 := n.Connect(border, fw2, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	f2e := n.Connect(fw2, ent, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(ent, office, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond})
	n.ComputeRoutes()

	pair := NewHAPair(n, fw1, fw2, 50*time.Millisecond)
	// Inbound at the border and outbound at the enterprise core both
	// follow the healthy firewall.
	pair.Protect(border, "office", b1.A, b2.A)
	pair.Protect(ent, "remote", f1e.B, f2e.B)
	fw1.SetRoute("office", f1e.A)
	fw1.SetRoute("remote", b1.B)
	fw2.SetRoute("office", f2e.A)
	fw2.SetRoute("remote", b2.B)
	return n, remote, office, pair, b1
}

func TestHAPairFailoverKeepsServiceUp(t *testing.T) {
	n, remote, office, pair, activeLink := haTopo(t)
	fw1 := pair.Active

	srv := tcp.NewServer(office, 443, tcp.Legacy())
	var first, second *tcp.Stats
	tcp.Dial(remote, srv, 2*units.MB, tcp.Legacy(), func(st *tcp.Stats) { first = st })
	n.RunFor(5 * time.Second)
	if first == nil {
		t.Fatal("pre-failure flow did not complete")
	}
	if fw1.Stats.Inspected == 0 {
		t.Fatal("active firewall should have inspected the flow")
	}

	// Hard failure on the active firewall's border link.
	activeLink.SetDown(true)
	n.RunFor(time.Second)
	if pair.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", pair.Failovers)
	}
	if pair.Active.Name() != "fw2" {
		t.Errorf("active after failover = %s", pair.Active.Name())
	}

	tcp.Dial(remote, srv, 2*units.MB, tcp.Legacy(), func(st *tcp.Stats) { second = st })
	n.RunFor(30 * time.Second)
	if second == nil {
		t.Fatal("post-failover flow did not complete")
	}
	if pair.Active.Stats.Inspected == 0 {
		t.Error("standby should be inspecting after failover")
	}
	// Path now avoids fw1.
	path := n.Path("remote", "office")
	for _, hop := range path {
		if hop == "fw1" {
			t.Errorf("path %v still crosses the failed firewall", path)
		}
	}
}

func TestHAPairSessionReplication(t *testing.T) {
	n, remote, office, pair, activeLink := haTopo(t)
	srv := tcp.NewServer(office, 443, tcp.Legacy())
	tcp.Dial(remote, srv, units.MB, tcp.Legacy(), nil)
	n.RunFor(2 * time.Second)
	before := pair.Active.SessionCount()
	if before == 0 {
		t.Fatal("no sessions established")
	}
	activeLink.SetDown(true)
	n.RunFor(time.Second)
	if pair.Active.SessionCount() < before {
		t.Errorf("sessions after failover = %d, want >= %d (replicated)",
			pair.Active.SessionCount(), before)
	}
}

func TestHAPairNoFailoverWhenHealthy(t *testing.T) {
	n, _, _, pair, _ := haTopo(t)
	n.RunFor(5 * time.Second)
	if pair.Failovers != 0 {
		t.Errorf("failovers = %d on a healthy pair", pair.Failovers)
	}
	pair.Stop()
}

func TestHAPairBothDeadNoFlap(t *testing.T) {
	n, _, _, pair, activeLink := haTopo(t)
	// Kill both firewalls' border links.
	activeLink.SetDown(true)
	for _, l := range n.Links() {
		for _, p := range []*netsim.Port{l.A, l.B} {
			if p.Owner.Name() == "fw2" {
				l.SetDown(true)
			}
		}
	}
	n.RunFor(time.Second)
	if pair.Failovers != 0 {
		t.Errorf("failovers = %d, want 0 when no healthy member exists", pair.Failovers)
	}
}
