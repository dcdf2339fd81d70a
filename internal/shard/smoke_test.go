package shard

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
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
	plan := n.Partition()
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
// packets propagate on a 25 ms cut link, with no explicit install (the
// first RunFor installs one shard, after the packets were sent) and at
// one and two shards: every packet on the wire — on the receiver's
// arrivals line or parked in a cross-shard ring — must count as in
// flight.
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

// TestEngineBulkTransferAllocationFree runs a window-limited bulk TCP
// transfer across a cut at two shards, so the sender allocates every
// data segment on one shard and the receiver releases it on the other.
// After warm-up, a further RunFor allocates fewer objects than 1% of
// the packets it carries: the barrier sends released packets home by
// evening out the shards' free-lists, which at rest differ by at most
// one packet.
func TestEngineBulkTransferAllocationFree(t *testing.T) {
	n := netsim.NewIsolated(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	s1 := n.NewDevice("s1", netsim.DeviceConfig{})
	s2 := n.NewDevice("s2", netsim.DeviceConfig{})
	jumbo := netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond, MTU: 9000}
	n.Connect(a, s1, jumbo)
	n.Connect(s2, b, jumbo)
	jumbo.Delay = 5 * time.Millisecond
	n.Connect(s1, s2, jumbo)
	n.ComputeRoutes()
	eng, err := Install(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A fixed 4 MB receive window keeps the flow window-limited, so its
	// packets in flight — and every structure sized by them — stop
	// growing once the window is open.
	opts := tcp.Options{WindowScale: true, RcvBuf: 4 * units.MB}
	tcp.Dial(a, tcp.NewServer(b, 5001, opts), -1, opts, nil)
	n.RunFor(time.Second)

	var carried uint64
	allocs := testing.AllocsPerRun(1, func() {
		before := n.Conservation().Injected
		n.RunFor(500 * time.Millisecond)
		carried = n.Conservation().Injected - before
	})
	free := eng.FreePackets()
	t.Logf("RunFor carried %d packets and allocated %v objects; shard free-lists hold %v", carried, allocs, free)
	if carried < 10000 {
		t.Fatalf("the transfer carried only %d packets in 500 ms", carried)
	}
	if allocs >= float64(carried)/100 {
		t.Errorf("RunFor allocated %v objects carrying %d packets, want fewer than 1%%", allocs, carried)
	}
	if len(free) != 2 || free[0]-free[1] > 1 || free[1]-free[0] > 1 {
		t.Errorf("shard free-lists at rest hold %v packets, want within one of each other", free)
	}
	for _, err := range n.AuditInvariants() {
		t.Errorf("audit: %v", err)
	}
}
