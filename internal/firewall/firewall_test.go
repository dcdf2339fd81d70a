package firewall

import (
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/acl"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// fwPath builds client -- fw -- server with symmetric links of the
// given rate and the WAN latency on the server side. The network's
// invariants are audited when the test ends.
func fwPath(t *testing.T, cfg Config, rate units.BitRate, oneWay time.Duration) (*netsim.Network, *netsim.Host, *netsim.Host, *Firewall) {
	n := auditedNet(t)
	c := n.NewHost("client")
	s := n.NewHost("server")
	fw := New(n, "fw", cfg)
	n.Connect(c, fw, netsim.LinkConfig{Rate: rate, Delay: 10 * time.Microsecond})
	n.Connect(fw, s, netsim.LinkConfig{Rate: rate, Delay: oneWay})
	n.ComputeRoutes()
	return n, c, s, fw
}

// auditedNet returns an empty network whose simulation invariants are
// audited when the test ends.
func auditedNet(t *testing.T) *netsim.Network {
	n := netsim.New(1)
	t.Cleanup(func() {
		for _, err := range n.AuditInvariants() {
			t.Errorf("audit: %v", err)
		}
	})
	return n
}

func TestForwardsAndCountsSessions(t *testing.T) {
	n, c, s, fw := fwPath(t, Config{}, units.Gbps, time.Millisecond)
	srv := tcp.NewServer(s, 5001, tcp.Tuned())
	var done *tcp.Stats
	tcp.Dial(c, srv, 100*units.KB, tcp.Tuned(), func(st *tcp.Stats) { done = st })
	n.Run()
	if done == nil {
		t.Fatal("transfer through firewall never completed")
	}
	if fw.SessionCount() != 1 || fw.Stats.Sessions != 1 {
		t.Errorf("sessions = %d, want 1", fw.SessionCount())
	}
	if fw.Stats.Inspected == 0 {
		t.Error("no packets inspected")
	}
}

func TestRoutePresenceInPathHelpers(t *testing.T) {
	n, c, s, _ := fwPath(t, Config{}, units.Gbps, time.Millisecond)
	path := n.Path(c.Name(), s.Name())
	want := []string{"client", "fw", "server"}
	if len(path) != 3 {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if n.PathMTU(c.Name(), s.Name()) != 1500 {
		t.Error("PathMTU through firewall wrong")
	}
}

func TestSingleFastFlowOverflowsOneProcessor(t *testing.T) {
	// §5: a host faster than one inspection engine overflows its small
	// input buffer. 10G links, 1.25G engines: a single TCP flow must
	// lose packets at the firewall and collapse far below 10G.
	cfg := Config{Processors: 8, ProcRate: 1250 * units.Mbps, InputBuffer: 256 * units.KB}
	n, c, s, fw := fwPath(t, cfg, 10*units.Gbps, 5*time.Millisecond)
	srv := tcp.NewServer(s, 5001, tcp.Tuned())
	conn := tcp.Dial(c, srv, -1, tcp.Tuned(), nil)
	n.RunFor(10 * time.Second)
	if fw.Stats.BufferDrops == 0 {
		t.Fatal("expected firewall buffer drops for a line-rate flow")
	}
	st := conn.Stats()
	gbps := float64(st.Throughput()) / 1e9
	if gbps > 1.3 {
		t.Errorf("throughput through firewall = %.2f Gbps, want under one engine rate", gbps)
	}
	if st.LossEvents == 0 {
		t.Error("TCP should have seen loss events")
	}
}

func TestManySlowFlowsPassClean(t *testing.T) {
	// The business-traffic profile the firewall was designed for: many
	// slow flows spread across engines, no loss.
	cfg := Config{Processors: 8, ProcRate: 1250 * units.Mbps, InputBuffer: 256 * units.KB}
	n := auditedNet(t)
	fw := New(n, "fw", cfg)
	s := n.NewHost("server")
	n.Connect(fw, s, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: time.Millisecond})
	var clients []*netsim.Host
	for i := 0; i < 16; i++ {
		c := n.NewHost(string(rune('a'+i)) + "-client")
		// 100 Mb/s access links: each flow is slow.
		n.Connect(c, fw, netsim.LinkConfig{Rate: 100 * units.Mbps, Delay: 10 * time.Microsecond})
		clients = append(clients, c)
	}
	n.ComputeRoutes()
	srv := tcp.NewServer(s, 5001, tcp.Tuned())
	finished := 0
	for _, c := range clients {
		tcp.Dial(c, srv, 2*units.MB, tcp.Tuned(), func(*tcp.Stats) { finished++ })
	}
	n.RunFor(20 * time.Second)
	if finished != len(clients) {
		t.Errorf("finished %d/%d flows", finished, len(clients))
	}
	if fw.Stats.BufferDrops != 0 {
		t.Errorf("buffer drops = %d, want 0 for slow flows", fw.Stats.BufferDrops)
	}
}

func TestSequenceCheckingStripsWScale(t *testing.T) {
	// §6.2 Penn State: tuned hosts, firewall sequence checking on. The
	// connection must fall back to unscaled 64 KB windows and cap near
	// window/RTT; disabling the feature restores full rate.
	run := func(seqCheck bool) (units.BitRate, *Firewall) {
		cfg := Config{SequenceChecking: seqCheck, ProcRate: 2 * units.Gbps, InputBuffer: 4 * units.MB}
		n, c, s, fw := fwPath(t, cfg, units.Gbps, 5*time.Millisecond) // RTT 10ms
		srv := tcp.NewServer(s, 5001, tcp.Tuned())
		var done *tcp.Stats
		tcp.Dial(c, srv, 30*units.MB, tcp.Tuned(), func(st *tcp.Stats) { done = st })
		n.RunFor(30 * time.Second)
		if done == nil {
			t.Fatal("transfer did not finish")
		}
		if done.WScaleOK == seqCheck {
			t.Errorf("WScaleOK = %v with seqCheck=%v", done.WScaleOK, seqCheck)
		}
		return done.Throughput(), fw
	}
	broken, fw := run(true)
	if fw.Stats.OptionsFixed == 0 {
		t.Error("sequence checking should have rewritten SYN options")
	}
	fixed, _ := run(false)
	improvement := float64(fixed) / float64(broken)
	if improvement < 4 {
		t.Errorf("disabling sequence checking improved only %.1fx (%.0f -> %.0f Mbps), want >= 4x (paper: ~5-12x)",
			improvement, float64(broken)/1e6, float64(fixed)/1e6)
	}
	mbps := float64(broken) / 1e6
	if mbps > 65 {
		t.Errorf("broken path = %.0f Mbps, want window-capped near 52", mbps)
	}
}

func TestPolicyDrops(t *testing.T) {
	rules := acl.NewList("fw-policy", acl.Deny).PermitFlow("client", "server", 5001)
	cfg := Config{Rules: rules}
	n, c, s, fw := fwPath(t, cfg, units.Gbps, time.Millisecond)
	srv := tcp.NewServer(s, 5001, tcp.Tuned())
	var ok bool
	tcp.Dial(c, srv, 10*units.KB, tcp.Tuned(), func(*tcp.Stats) { ok = true })

	// A denied flow to another port: SYNs must die at the firewall.
	srv2 := tcp.NewServer(s, 23, tcp.Tuned())
	var blocked bool
	tcp.Dial(c, srv2, 10*units.KB, tcp.Tuned(), func(*tcp.Stats) { blocked = true })

	n.RunFor(2 * time.Minute)
	if !ok {
		t.Error("permitted flow did not complete")
	}
	if blocked {
		t.Error("denied flow completed")
	}
	if fw.Stats.PolicyDrops == 0 {
		t.Error("no policy drops recorded")
	}
}

func TestSessionSetupDelaysFirstPacket(t *testing.T) {
	cfg := Config{SessionSetup: 10 * time.Millisecond, ProcRate: 10 * units.Gbps}
	n, c, s, _ := fwPath(t, cfg, units.Gbps, time.Microsecond)
	var at time.Duration
	s.Bind(netsim.ProtoTCP, 9, netsim.HandlerFunc(func(p *netsim.Packet) {
		at = s.Now().Duration() // the server's clock: the control clock lags it inside a window
	}))
	c.Send(&netsim.Packet{
		Flow: netsim.FlowKey{Src: "client", Dst: "server", SrcPort: 50000, DstPort: 9, Proto: netsim.ProtoTCP},
		Size: 100,
	})
	n.Run()
	if at < 10*time.Millisecond {
		t.Errorf("first packet arrived at %v, want >= 10ms session setup", at)
	}
}

func TestBypassSkipsInspection(t *testing.T) {
	// §7.3: an SDN-style bypass for a verified flow must avoid both the
	// engine queue and sanitization.
	cfg := Config{SequenceChecking: true, ProcRate: units.Mbps, InputBuffer: 2 * units.KB}
	n, c, s, fw := fwPath(t, cfg, units.Gbps, time.Microsecond)
	fw.Bypass = func(p *netsim.Packet) bool { return p.Flow.Src == "client" || p.Flow.Dst == "client" }
	var got *netsim.Packet
	s.Bind(netsim.ProtoTCP, 9, netsim.HandlerFunc(func(p *netsim.Packet) { got = p }))
	c.Send(&netsim.Packet{
		Flow:   netsim.FlowKey{Src: "client", Dst: "server", SrcPort: 50000, DstPort: 9, Proto: netsim.ProtoTCP},
		Size:   1500,
		Flags:  netsim.FlagSYN,
		WScale: 7,
	})
	n.Run()
	if got == nil {
		t.Fatal("bypassed packet not delivered")
	}
	if got.WScale != 7 {
		t.Error("bypassed packet should keep its options")
	}
	if fw.Stats.Inspected != 0 {
		t.Error("bypassed packet should not be inspected")
	}
}

func TestCanonicalSessionSharedAcrossDirections(t *testing.T) {
	n, c, s, fw := fwPath(t, Config{}, units.Gbps, time.Microsecond)
	fwd := netsim.FlowKey{Src: "client", Dst: "server", SrcPort: 50000, DstPort: 9, Proto: netsim.ProtoTCP}
	s.Bind(netsim.ProtoTCP, 9, netsim.HandlerFunc(func(*netsim.Packet) {}))
	c.Bind(netsim.ProtoTCP, 50000, netsim.HandlerFunc(func(*netsim.Packet) {}))
	c.Send(&netsim.Packet{Flow: fwd, Size: 100})
	s.Send(&netsim.Packet{Flow: fwd.Reverse(), Size: 100})
	n.Run()
	if fw.SessionCount() != 1 {
		t.Errorf("sessions = %d, want 1 shared across directions", fw.SessionCount())
	}
}

// TestFlowHashMatchesFNV pins the engine assignment: flowHash must give
// the value hash/fnv's FNV-1a gives over the same bytes, so every flow
// keeps the inspection engine it always had.
func TestFlowHashMatchesFNV(t *testing.T) {
	keys := []netsim.FlowKey{
		{},
		{Src: "client", Dst: "server", SrcPort: 50000, DstPort: 5001, Proto: netsim.ProtoTCP},
		{Src: "server", Dst: "client", SrcPort: 5001, DstPort: 50000, Proto: netsim.ProtoTCP},
		{Src: "campus-host-17", Dst: "wan-dtn", SrcPort: 65535, DstPort: 1, Proto: netsim.ProtoUDP},
		{Src: "é", Dst: "a\x00b", SrcPort: 256, DstPort: 255},
	}
	for _, k := range keys {
		h := fnv.New32a()
		h.Write([]byte(k.Src))
		h.Write([]byte(k.Dst))
		h.Write([]byte{byte(k.SrcPort >> 8), byte(k.SrcPort), byte(k.DstPort >> 8), byte(k.DstPort)})
		if got, want := flowHash(k), h.Sum32(); got != want {
			t.Errorf("flowHash(%v) = %#x, hash/fnv gives %#x", k, got, want)
		}
	}
}

// TestInspectionAllocationFree sends batches of packets on four flows
// through the inspection engines, faster than they inspect, so every
// engine a flow lands on holds a standing queue. Once the engines'
// rings and the session table have reached their size, a batch
// allocates nothing.
func TestInspectionAllocationFree(t *testing.T) {
	n, c, s, fw := fwPath(t, Config{}, 10*units.Gbps, time.Microsecond)
	delivered := 0
	s.Bind(netsim.ProtoUDP, 9, netsim.HandlerFunc(func(p *netsim.Packet) {
		delivered++
		s.ReleasePacket(p)
	}))

	const flows, perFlow = 4, 32
	send := func() {
		for i := 0; i < flows*perFlow; i++ {
			p := c.NewPacket()
			p.Flow = netsim.FlowKey{Src: "client", Dst: "server", SrcPort: uint16(50000 + i%flows), DstPort: 9, Proto: netsim.ProtoUDP}
			p.Size = 1500
			c.Send(p)
		}
		n.Run()
	}
	if allocs := testing.AllocsPerRun(4, send); allocs != 0 {
		t.Errorf("a warmed batch of %d inspected packets allocates %v times, want 0", flows*perFlow, allocs)
	}
	if want := 5 * flows * perFlow; delivered != want || fw.Stats.Inspected != uint64(want) || fw.Stats.BufferDrops != 0 {
		t.Fatalf("delivered %d, inspected %d, buffer drops %d; want %d, %d, 0",
			delivered, fw.Stats.Inspected, fw.Stats.BufferDrops, want, want)
	}
}
