package shard

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/units"
)

// buildPair returns a two-host topology joined through two switches and
// one wide-area link eligible for cutting:
//
//	a --- s1 ===WAN=== s2 --- b
func buildPair(t *testing.T, seed int64) (*netsim.Network, *netsim.Host, *netsim.Host) {
	t.Helper()
	n := netsim.NewIsolated(seed)
	a := n.NewHost("a")
	b := n.NewHost("b")
	s1 := n.NewDevice("s1", netsim.DeviceConfig{})
	s2 := n.NewDevice("s2", netsim.DeviceConfig{})
	n.Connect(a, s1, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(s2, b, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(s1, s2, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 5 * time.Millisecond})
	n.ComputeRoutes()
	return n, a, b
}

func TestPartitionPair(t *testing.T) {
	n, _, _ := buildPair(t, 1)
	plan, err := Partition(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Domains) != 2 {
		t.Fatalf("domains = %v, want 2", plan.Domains)
	}
	if len(plan.Cuts) != 1 {
		t.Fatalf("cuts = %d, want 1", len(plan.Cuts))
	}
	if plan.Lookahead != 5*time.Millisecond {
		t.Fatalf("lookahead = %v, want 5ms", plan.Lookahead)
	}
}

func TestEngineDeliversAcrossCut(t *testing.T) {
	for _, shards := range []int{1, 2} {
		n, a, b := buildPair(t, 1)
		got := 0
		b.Bind(netsim.ProtoTCP, 5001, netsim.HandlerFunc(func(pkt *netsim.Packet) {
			got++
		}))
		if _, err := Install(n, shards); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			pkt := n.NewPacket()
			pkt.Flow = netsim.FlowKey{Src: "a", Dst: "b", Proto: netsim.ProtoTCP, DstPort: 5001}
			pkt.Size = 1500
			a.Send(pkt)
		}
		n.RunFor(time.Second)
		if got != 10 {
			t.Fatalf("shards=%d: delivered %d packets, want 10", shards, got)
		}
		for _, err := range n.AuditInvariants() {
			t.Errorf("shards=%d: audit: %v", shards, err)
		}
	}
}

// TestConservationCountsPacketsOnTheWire audits the ledger while
// packets propagate on a 25 ms cut link, unsharded and at one and two
// shards: every packet on the wire — on the receiver's arrivals line or
// parked in a cross-shard ring — must count as in flight.
func TestConservationCountsPacketsOnTheWire(t *testing.T) {
	const sent = 50
	for _, shards := range []int{0, 1, 2} {
		n := netsim.NewIsolated(1)
		a := n.NewHost("a")
		b := n.NewHost("b")
		n.Connect(a, b, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 25 * time.Millisecond})
		n.ComputeRoutes()
		got := 0
		b.Bind(netsim.ProtoUDP, 9, netsim.HandlerFunc(func(*netsim.Packet) { got++ }))
		if shards > 0 {
			if _, err := Install(n, shards); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < sent; i++ {
			pkt := n.NewPacket()
			pkt.Flow = netsim.FlowKey{Src: "a", Dst: "b", Proto: netsim.ProtoUDP, DstPort: 9}
			pkt.Size = 1500
			a.Send(pkt)
		}
		n.RunFor(10 * time.Millisecond) // all serialized, none arrived
		if c := n.Conservation(); c.InFlight != sent || !c.Balanced() {
			t.Errorf("shards=%d at 10ms: %v, want %d in flight", shards, c, sent)
		}
		n.Run()
		if c := n.Conservation(); c.InFlight != 0 || !c.Balanced() || got != sent {
			t.Errorf("shards=%d drained: %v with %d delivered, want all %d delivered", shards, c, got, sent)
		}
		for _, err := range n.AuditInvariants() {
			t.Errorf("shards=%d: audit: %v", shards, err)
		}
	}
}
