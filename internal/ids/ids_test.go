package ids

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/units"
)

func testNet() (*netsim.Network, *netsim.Host, *netsim.Host, *IDS) {
	n := netsim.New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	n.Connect(a, b, netsim.LinkConfig{Rate: units.Gbps, Delay: time.Millisecond})
	n.ComputeRoutes()
	ids := New(n, "bro")
	ids.Watch(b.Ports()[0])
	return n, a, b, ids
}

func TestFlowAccounting(t *testing.T) {
	n, a, b, ids := testNet()
	srv := tcp.NewServer(b, 2811, tcp.Tuned())
	tcp.Dial(a, srv, 100*units.KB, tcp.Tuned(), nil)
	n.Run()
	flows := ids.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(flows))
	}
	rec := flows[0]
	if !rec.SynSeen {
		t.Error("SYN not recorded")
	}
	if rec.Bytes < 100*units.KB {
		t.Errorf("bytes = %v, want >= 100KB payload", rec.Bytes)
	}
	if rec.Packets == 0 || rec.Last <= rec.First {
		t.Error("packet/time accounting wrong")
	}
}

func TestVerifiedCallbackFiresOnceAfterThreshold(t *testing.T) {
	n, a, b, ids := testNet()
	ids.VerifyAfter = 5
	var verified []*FlowRecord
	ids.OnVerified = func(rec *FlowRecord) { verified = append(verified, rec) }
	srv := tcp.NewServer(b, 2811, tcp.Tuned())
	conn := tcp.Dial(a, srv, 500*units.KB, tcp.Tuned(), nil)
	n.Run()
	if len(verified) != 1 {
		t.Fatalf("verified callbacks = %d, want 1", len(verified))
	}
	if !ids.Verified(conn.Flow()) {
		t.Error("Verified lookup by flow key (either direction) failed")
	}
	if !ids.Verified(conn.Flow().Reverse()) {
		t.Error("Verified must be direction independent")
	}
}

func TestUnexpectedServiceSignature(t *testing.T) {
	n, a, b, ids := testNet()
	ids.Signatures = append(ids.Signatures, UnexpectedServiceSignature(2811))
	var verified int
	ids.OnVerified = func(*FlowRecord) { verified++ }
	ids.VerifyAfter = 3

	// Allowed service: no alert, gets verified.
	srv := tcp.NewServer(b, 2811, tcp.Tuned())
	tcp.Dial(a, srv, 50*units.KB, tcp.Tuned(), nil)
	// Disallowed service: alert, never verified.
	srv2 := tcp.NewServer(b, 23, tcp.Tuned())
	tcp.Dial(a, srv2, 50*units.KB, tcp.Tuned(), nil)
	n.Run()

	if len(ids.Alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(ids.Alerts))
	}
	if ids.Alerts[0].Rule != "unexpected-service" {
		t.Errorf("alert rule = %q", ids.Alerts[0].Rule)
	}
	if verified != 1 {
		t.Errorf("verified = %d, want only the allowed flow", verified)
	}
}

func TestPortScanSignature(t *testing.T) {
	n, a, _, ids := testNet()
	ids.Signatures = append(ids.Signatures, PortScanSignature(5))
	// Send SYNs to 10 different ports.
	for port := uint16(1000); port < 1010; port++ {
		a.Send(&netsim.Packet{
			Flow:  netsim.FlowKey{Src: "a", Dst: "b", SrcPort: 40000, DstPort: port, Proto: netsim.ProtoTCP},
			Size:  40,
			Flags: netsim.FlagSYN,
		})
	}
	n.Run()
	if len(ids.Alerts) != 1 {
		t.Fatalf("alerts = %d, want exactly 1 (fire once at threshold)", len(ids.Alerts))
	}
	if ids.Alerts[0].Rule != "port-scan" {
		t.Errorf("rule = %q", ids.Alerts[0].Rule)
	}
}

func TestTopTalkersOrder(t *testing.T) {
	n, a, b, ids := testNet()
	srv := tcp.NewServer(b, 2811, tcp.Tuned())
	tcp.Dial(a, srv, 10*units.KB, tcp.Tuned(), nil)
	tcp.Dial(a, srv, 500*units.KB, tcp.Tuned(), nil)
	n.Run()
	flows := ids.Flows()
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(flows))
	}
	if flows[0].Bytes < flows[1].Bytes {
		t.Error("Flows() should be largest-first")
	}
}

func TestPassiveTapCausesNoLoss(t *testing.T) {
	n, a, b, ids := testNet()
	_ = ids
	srv := tcp.NewServer(b, 2811, tcp.Tuned())
	var done *tcp.Stats
	tcp.Dial(a, srv, units.MB, tcp.Tuned(), func(st *tcp.Stats) { done = st })
	n.Run()
	if done == nil || done.Retransmits != 0 {
		t.Error("IDS tap must never perturb traffic")
	}
	if got := n.Conservation().Dropped; got != 0 {
		t.Errorf("drops = %d, want 0", got)
	}
}

func TestFlowLookupUnknown(t *testing.T) {
	_, _, _, ids := testNet()
	if ids.Flow(netsim.FlowKey{Src: "x", Dst: "y"}) != nil {
		t.Error("unknown flow should return nil")
	}
	if ids.Verified(netsim.FlowKey{Src: "x", Dst: "y"}) {
		t.Error("unknown flow should not be verified")
	}
}

func TestRateAnomalySignature(t *testing.T) {
	n, a, b, ids := testNet()
	ids.Signatures = append(ids.Signatures, RateAnomalySignature(units.MB, 2811))

	// Bulk flow on the sanctioned transfer port: exempt.
	srv := tcp.NewServer(b, 2811, tcp.Tuned())
	tcp.Dial(a, srv, 5*units.MB, tcp.Tuned(), nil)
	// Bulk flow on an unexpected port: alerts once.
	srv2 := tcp.NewServer(b, 4444, tcp.Tuned())
	tcp.Dial(a, srv2, 5*units.MB, tcp.Tuned(), nil)
	n.Run()

	if len(ids.Alerts) != 1 {
		t.Fatalf("alerts = %d, want exactly 1", len(ids.Alerts))
	}
	if ids.Alerts[0].Rule != "rate-anomaly" {
		t.Errorf("rule = %q", ids.Alerts[0].Rule)
	}
}
