package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// twoHosts builds a ---/ b with the given link config and returns both
// hosts plus a capture of everything b receives on TCP port 9.
func twoHosts(t *testing.T, cfg LinkConfig) (*Network, *Host, *Host, *[]*Packet) {
	t.Helper()
	n := New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	n.Connect(a, b, cfg)
	n.ComputeRoutes()
	var got []*Packet
	b.Bind(ProtoTCP, 9, HandlerFunc(func(p *Packet) { got = append(got, p) }))
	return n, a, b, &got
}

func pkt(src, dst string, size units.ByteSize) *Packet {
	return &Packet{
		Flow: FlowKey{Src: src, Dst: dst, SrcPort: 50000, DstPort: 9, Proto: ProtoTCP},
		Size: size,
	}
}

func TestDirectDeliveryTiming(t *testing.T) {
	n, a, _, got := twoHosts(t, LinkConfig{Rate: units.Gbps, Delay: 5 * time.Millisecond})
	a.Send(pkt("a", "b", 1500))
	n.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*got))
	}
	// 1500B at 1Gbps = 12us serialization + 5ms propagation.
	want := sim.Time(5*time.Millisecond + 12*time.Microsecond)
	if n.Now() != want {
		t.Errorf("delivery at %v, want %v", n.Now(), want)
	}
}

func TestSerializationPipelining(t *testing.T) {
	// Two packets sent back to back: the second waits for the first's
	// serialization but their propagation overlaps.
	n, a, _, got := twoHosts(t, LinkConfig{Rate: units.Gbps, Delay: 5 * time.Millisecond})
	a.Send(pkt("a", "b", 1500))
	a.Send(pkt("a", "b", 1500))
	n.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(*got))
	}
	want := sim.Time(5*time.Millisecond + 24*time.Microsecond)
	if n.Now() != want {
		t.Errorf("last delivery at %v, want %v", n.Now(), want)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	n := New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	// Tiny egress buffer at a: 3000 bytes = two 1500B packets beyond the
	// one in flight.
	n.Connect(a, b, LinkConfig{Rate: units.Mbps, Delay: time.Millisecond, QueueA: 3000})
	n.ComputeRoutes()
	var got []*Packet
	b.Bind(ProtoTCP, 9, HandlerFunc(func(p *Packet) { got = append(got, p) }))
	for i := 0; i < 10; i++ {
		a.Send(pkt("a", "b", 1500))
	}
	n.Run()
	// 1 transmitting + 2 queued = 3 delivered, 7 dropped.
	if len(got) != 3 {
		t.Errorf("delivered %d, want 3", len(got))
	}
	drops := a.Ports()[0].Counters.QueueDrops
	if drops != 7 {
		t.Errorf("queue drops = %d, want 7", drops)
	}
	if got := n.Conservation().Dropped; got != 7 {
		t.Errorf("network drops = %d, want 7", got)
	}
}

func TestWireLossInvisibleToPortCounters(t *testing.T) {
	// The §2.1 story: wire (soft-failure) drops appear nowhere in port
	// counters, only in end-to-end observation.
	n := New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	l := n.Connect(a, b, LinkConfig{Rate: units.Gbps, Delay: time.Millisecond, Loss: &PeriodicLoss{N: 5}})
	n.ComputeRoutes()
	var got int
	b.Bind(ProtoTCP, 9, HandlerFunc(func(p *Packet) { got++ }))
	for i := 0; i < 100; i++ {
		a.Send(pkt("a", "b", 1500))
	}
	n.Run()
	if got != 80 {
		t.Errorf("delivered %d, want 80", got)
	}
	if l.WireDrops() != 20 {
		t.Errorf("wire drops = %d, want 20", l.WireDrops())
	}
	ap, bp := a.Ports()[0], b.Ports()[0]
	if ap.Counters.QueueDrops != 0 || bp.Counters.QueueDrops != 0 {
		t.Error("wire loss should not appear as queue drops")
	}
	// The sender's SNMP view: it transmitted all 100 fine.
	if ap.Counters.TxPackets != 100 {
		t.Errorf("tx packets = %d, want 100", ap.Counters.TxPackets)
	}
	// The receiver simply saw fewer packets — no error counter anywhere.
	if bp.Counters.RxPackets != 80 {
		t.Errorf("rx packets = %d, want 80", bp.Counters.RxPackets)
	}
}

func TestRoutingThroughDevices(t *testing.T) {
	// a -- r1 -- r2 -- b
	n := New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	r1 := n.NewDevice("r1", DeviceConfig{})
	r2 := n.NewDevice("r2", DeviceConfig{})
	n.Connect(a, r1, LinkConfig{Rate: 10 * units.Gbps, Delay: time.Microsecond})
	n.Connect(r1, r2, LinkConfig{Rate: 10 * units.Gbps, Delay: time.Millisecond})
	n.Connect(r2, b, LinkConfig{Rate: 10 * units.Gbps, Delay: time.Microsecond})
	n.ComputeRoutes()

	var got []*Packet
	b.Bind(ProtoTCP, 9, HandlerFunc(func(p *Packet) { got = append(got, p) }))
	a.Send(pkt("a", "b", 1500))
	n.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	if got[0].Hops != 2 {
		t.Errorf("hops = %d, want 2", got[0].Hops)
	}
	if r1.Forwarded != 1 || r2.Forwarded != 1 {
		t.Error("both routers should have forwarded the packet")
	}
	wantPath := []string{"a", "r1", "r2", "b"}
	path := n.Path("a", "b")
	if len(path) != len(wantPath) {
		t.Fatalf("path = %v", path)
	}
	for i := range wantPath {
		if path[i] != wantPath[i] {
			t.Fatalf("path = %v, want %v", path, wantPath)
		}
	}
}

func TestShortestPathPreferred(t *testing.T) {
	// a -- r1 -- b and a -- r1 -- r2 -- r3 -- b: BFS must pick direct.
	n := New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	r1 := n.NewDevice("r1", DeviceConfig{})
	r2 := n.NewDevice("r2", DeviceConfig{})
	r3 := n.NewDevice("r3", DeviceConfig{})
	n.Connect(a, r1, LinkConfig{Rate: units.Gbps})
	n.Connect(r1, b, LinkConfig{Rate: units.Gbps})
	n.Connect(r1, r2, LinkConfig{Rate: units.Gbps})
	n.Connect(r2, r3, LinkConfig{Rate: units.Gbps})
	n.Connect(r3, b, LinkConfig{Rate: units.Gbps})
	n.ComputeRoutes()
	path := n.Path("a", "b")
	if len(path) != 3 {
		t.Errorf("path = %v, want a r1 b", path)
	}
	_ = r3
}

func TestNoRouteDrop(t *testing.T) {
	n := New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	n.Connect(a, b, LinkConfig{Rate: units.Gbps})
	// Deliberately no ComputeRoutes.
	a.Send(pkt("a", "b", 100))
	n.Run()
	if got := n.Conservation().Dropped; got != 1 {
		t.Errorf("drops = %d, want 1", got)
	}
	if n.Path("a", "nonexistent") != nil {
		t.Error("Path to unknown node should be nil")
	}
}

func TestHostDemuxNoHandler(t *testing.T) {
	n, a, b, _ := twoHosts(t, LinkConfig{Rate: units.Gbps})
	p := pkt("a", "b", 100)
	p.Flow.DstPort = 12345 // nothing bound
	a.Send(p)
	n.Run()
	if got := n.DropStats[DropSite{Reason: DropNoHandler, Node: b.Name()}]; got != 1 {
		t.Errorf("host dropped = %d, want 1", got)
	}
}

func TestBindConflictPanics(t *testing.T) {
	n := New(1)
	h := n.NewHost("h")
	h.Bind(ProtoTCP, 9, HandlerFunc(func(*Packet) {}))
	defer func() {
		if recover() == nil {
			t.Error("duplicate Bind did not panic")
		}
	}()
	h.Bind(ProtoTCP, 9, HandlerFunc(func(*Packet) {}))
}

func TestUnbindFreesPort(t *testing.T) {
	n := New(1)
	h := n.NewHost("h")
	h.Bind(ProtoTCP, 9, HandlerFunc(func(*Packet) {}))
	h.Unbind(ProtoTCP, 9)
	h.Bind(ProtoTCP, 9, HandlerFunc(func(*Packet) {})) // must not panic
}

func TestEphemeralPortsUnique(t *testing.T) {
	n := New(1)
	h := n.NewHost("h")
	seen := make(map[uint16]bool)
	for i := 0; i < 1000; i++ {
		p := h.EphemeralPort()
		if p < 49152 {
			t.Fatalf("ephemeral port %d below range", p)
		}
		if seen[p] {
			t.Fatalf("port %d reused", p)
		}
		seen[p] = true
		h.Bind(ProtoTCP, p, HandlerFunc(func(*Packet) {}))
	}
}

func TestDuplicateNodeNamePanics(t *testing.T) {
	n := New(1)
	n.NewHost("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate node name did not panic")
		}
	}()
	n.NewDevice("x", DeviceConfig{})
}

func TestConnectZeroRatePanics(t *testing.T) {
	n := New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	defer func() {
		if recover() == nil {
			t.Error("zero-rate Connect did not panic")
		}
	}()
	n.Connect(a, b, LinkConfig{})
}

func TestPathMTU(t *testing.T) {
	n := New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	r := n.NewDevice("r", DeviceConfig{})
	n.Connect(a, r, LinkConfig{Rate: units.Gbps, MTU: 9000})
	n.Connect(r, b, LinkConfig{Rate: units.Gbps}) // default 1500
	n.ComputeRoutes()
	if mtu := n.PathMTU("a", "b"); mtu != 1500 {
		t.Errorf("path MTU = %d, want 1500", mtu)
	}
}

func TestFilterDropsAndRewrite(t *testing.T) {
	n := New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	r := n.NewDevice("r", DeviceConfig{})
	n.Connect(a, r, LinkConfig{Rate: units.Gbps})
	n.Connect(r, b, LinkConfig{Rate: units.Gbps})
	n.ComputeRoutes()
	r.AddFilter(filterFunc{
		name: "test-acl",
		fn: func(p *Packet, _ *Port) bool {
			if p.Flow.DstPort == 9 {
				p.WScale = NoWScale // also exercise rewriting
				return true
			}
			return false
		},
	})
	var got []*Packet
	b.Bind(ProtoTCP, 9, HandlerFunc(func(p *Packet) { got = append(got, p) }))

	good := pkt("a", "b", 100)
	good.WScale = 7
	a.Send(good)
	bad := pkt("a", "b", 100)
	bad.Flow.DstPort = 23
	a.Send(bad)
	n.Run()

	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	if got[0].WScale != NoWScale {
		t.Error("filter rewrite not applied")
	}
	if got := n.DropStats[DropSite{Reason: DropFiltered, Node: r.Name()}]; got != 1 {
		t.Errorf("filter drops = %d, want 1", got)
	}
}

type filterFunc struct {
	name string
	fn   func(*Packet, *Port) bool
}

func (f filterFunc) FilterName() string             { return f.name }
func (f filterFunc) Check(p *Packet, in *Port) bool { return f.fn(p, in) }

func TestForwarderOverride(t *testing.T) {
	// Triangle: a--r, r--b, r--c. Forwarder redirects b-bound traffic to c.
	n := New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	c := n.NewHost("c")
	r := n.NewDevice("r", DeviceConfig{})
	n.Connect(a, r, LinkConfig{Rate: units.Gbps})
	n.Connect(r, b, LinkConfig{Rate: units.Gbps})
	toC := n.Connect(r, c, LinkConfig{Rate: units.Gbps})
	n.ComputeRoutes()

	r.SetForwarder(forwarderFunc(func(p *Packet, _ *Port) (*Port, bool) {
		if p.Flow.Dst == "b" {
			return toC.A, true
		}
		return nil, false
	}))
	var cGot int
	c.Bind(ProtoTCP, 9, HandlerFunc(func(*Packet) { cGot++ }))
	var bGot int
	b.Bind(ProtoTCP, 9, HandlerFunc(func(*Packet) { bGot++ }))
	a.Send(pkt("a", "b", 100))
	n.Run()
	if bGot != 0 || cGot != 1 {
		t.Errorf("b=%d c=%d, want redirect to c", bGot, cGot)
	}
}

type forwarderFunc func(*Packet, *Port) (*Port, bool)

func (f forwarderFunc) Route(p *Packet, in *Port) (*Port, bool) { return f(p, in) }

func TestCutThroughDegradation(t *testing.T) {
	// §6.1 model: sustained load on a cut-through switch degrades it to
	// a slow shared store-and-forward engine with a tiny pool; offered
	// load beyond the engine rate then drops. After ResetMode the
	// switch forwards cleanly again.
	n := New(1)
	s1 := n.NewHost("s1")
	s2 := n.NewHost("s2")
	dst := n.NewHost("dst")
	sw := n.NewDevice("sw", DeviceConfig{
		EgressBuffer: 8 * units.MB,
		CutThrough:   true,
		SFRate:       500 * units.Mbps,
		SFBuffer:     32 * units.KB,
	})
	n.Connect(s1, sw, LinkConfig{Rate: units.Gbps})
	n.Connect(s2, sw, LinkConfig{Rate: units.Gbps})
	n.Connect(sw, dst, LinkConfig{Rate: 10 * units.Gbps})
	n.ComputeRoutes()
	var rx int
	dst.Bind(ProtoTCP, 9, HandlerFunc(func(*Packet) { rx++ }))

	// Sustained ~2G offered (two 1G senders flat out) for 300 ms: the
	// utilization check (100 ms windows) must trip, and then the 0.5G
	// SF engine must shed most of the load.
	send := n.Sched.Every(12*time.Microsecond, func() {
		s1.Send(pkt("s1", "dst", 1500))
		s2.Send(pkt("s2", "dst", 1500))
	})
	n.RunFor(300 * time.Millisecond)
	if sw.sfServing == nil {
		t.Fatal("the store-and-forward engine should be serving a packet mid-load")
	}
	for _, err := range n.AuditInvariants() {
		t.Errorf("audit mid-load: %v", err)
	}
	send.Stop()
	n.Run()
	if !sw.Degraded {
		t.Fatal("switch should have degraded to store-and-forward")
	}
	if sw.SFDrops == 0 {
		t.Fatal("degraded engine should drop under load")
	}

	// Vendor fix.
	sw.ResetMode()
	if sw.Degraded {
		t.Fatal("ResetMode should clear degradation")
	}
	dropsBefore := sw.SFDrops
	rx = 0
	send2 := n.Sched.Every(12*time.Microsecond, func() {
		s1.Send(pkt("s1", "dst", 1500))
		s2.Send(pkt("s2", "dst", 1500))
	})
	n.RunFor(100 * time.Millisecond)
	send2.Stop()
	n.Run()
	if sw.SFDrops != dropsBefore {
		t.Error("after the fix, no SF drops should occur")
	}
	if rx == 0 {
		t.Error("traffic should flow after the fix")
	}
	// Note: the fixed switch will degrade again if driven past the
	// utilization threshold, because CutThrough is still set — the real
	// fix was firmware; here ResetMode models the repair event.
}

func TestMaxHopsLoopProtection(t *testing.T) {
	// Create a deliberate two-node routing loop.
	n := New(1)
	a := n.NewHost("a")
	r1 := n.NewDevice("r1", DeviceConfig{})
	r2 := n.NewDevice("r2", DeviceConfig{})
	n.Connect(a, r1, LinkConfig{Rate: units.Gbps})
	l := n.Connect(r1, r2, LinkConfig{Rate: units.Gbps})
	n.ComputeRoutes()
	r1.SetRoute("ghost", l.A)
	r2.SetRoute("ghost", l.B)
	a.SetRoute("ghost", a.Ports()[0])

	p := pkt("a", "ghost", 100)
	a.Send(p)
	n.Run()
	if n.DropStats[DropSite{Reason: DropMaxHops, Node: "r1"}]+n.DropStats[DropSite{Reason: DropMaxHops, Node: "r2"}] != 1 {
		t.Errorf("loop not caught: drops=%v", n.DropSites())
	}
}

func TestDropHook(t *testing.T) {
	n := New(1)
	a := n.NewHost("a")
	var sites []DropSite
	n.DropHook = func(_ *Packet, site DropSite) { sites = append(sites, site) }
	a.Send(pkt("a", "nowhere", 100))
	n.Run()
	if len(sites) != 1 {
		t.Fatalf("hook calls = %d, want 1", len(sites))
	}
	if want := (DropSite{Reason: DropNoLocalRoute, Node: "a"}); sites[0] != want {
		t.Errorf("hook site = %v, want %v", sites[0], want)
	}
}

// TestCountedDropAllocationFree pins the untraced drop path at zero
// allocations once its site has been seen: a drop is tallied under its
// structured site, never under a rendered string.
func TestCountedDropAllocationFree(t *testing.T) {
	n := New(1)
	a := n.NewHost("a")
	p := pkt("a", "nowhere", 100)
	a.Send(p) // the site's first drop inserts its tally entry
	if allocs := testing.AllocsPerRun(100, func() { a.Send(p) }); allocs != 0 {
		t.Errorf("counted drop allocates %.1f times per packet, want 0", allocs)
	}
	if got := n.DropStats[DropSite{Reason: DropNoLocalRoute, Node: "a"}]; got != n.Conservation().Dropped {
		t.Errorf("site tally %d != ledger dropped %d", got, n.Conservation().Dropped)
	}
}

func TestHostsSortedAndLookup(t *testing.T) {
	n := New(1)
	n.NewHost("zeta")
	n.NewHost("alpha")
	n.NewDevice("router", DeviceConfig{})
	hosts := n.Hosts()
	if len(hosts) != 2 || hosts[0].Name() != "alpha" || hosts[1].Name() != "zeta" {
		t.Errorf("Hosts() = %v", hosts)
	}
	if n.Host("alpha") == nil || n.Host("router") != nil {
		t.Error("Host lookup wrong")
	}
	if n.Node("router") == nil {
		t.Error("Node lookup wrong")
	}
}

func TestTapSeesTraffic(t *testing.T) {
	n, a, b, _ := twoHosts(t, LinkConfig{Rate: units.Gbps})
	var tx, rx int
	b.Ports()[0].AddTap(func(p *Packet, d Dir) {
		if d == DirRx {
			rx++
		} else {
			tx++
		}
	})
	a.Send(pkt("a", "b", 100))
	n.Run()
	if rx != 1 || tx != 0 {
		t.Errorf("tap rx=%d tx=%d, want 1/0", rx, tx)
	}
}

// TestSetDownSparesPacketsOnTheWire pins what a hard link failure
// destroys: a packet already propagating when the link goes down still
// arrives, and the next packet to finish serializing onto the down link
// is dropped as DropLinkDown.
func TestSetDownSparesPacketsOnTheWire(t *testing.T) {
	n, a, _, got := twoHosts(t, LinkConfig{Rate: 10 * units.Gbps, Delay: 25 * time.Millisecond})
	l := n.Links()[0]
	a.Send(pkt("a", "b", 1500))
	n.RunFor(10 * time.Millisecond) // the first packet is 10 ms into the wire
	l.SetDown(true)
	a.Send(pkt("a", "b", 1500))
	n.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d packets, want the one already on the wire", len(*got))
	}
	if d := n.DropStats[DropSite{Reason: DropLinkDown, Node: "a<->b"}]; d != 1 {
		t.Errorf("link-down drops = %d, want 1", d)
	}
	for _, err := range n.AuditInvariants() {
		t.Error(err)
	}
}
