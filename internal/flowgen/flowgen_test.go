package flowgen

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/units"
)

func campus() (*netsim.Network, *netsim.Host, []*netsim.Host) {
	n := netsim.New(1)
	sw := n.NewDevice("sw", netsim.DeviceConfig{EgressBuffer: 8 * units.MB})
	srv := n.NewHost("server")
	n.Connect(srv, sw, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 100 * time.Microsecond})
	var clients []*netsim.Host
	for i := 0; i < 4; i++ {
		c := n.NewHost("client" + string(rune('a'+i)))
		n.Connect(c, sw, netsim.LinkConfig{Rate: units.Gbps, Delay: 100 * time.Microsecond})
		clients = append(clients, c)
	}
	n.ComputeRoutes()
	return n, srv, clients
}

func TestBusinessPoissonLoad(t *testing.T) {
	n, srv, clients := campus()
	b := StartBusiness(srv, clients, Business{FlowsPerSecond: 100}, 42)
	n.RunFor(10 * time.Second)
	// ~1000 flows expected; Poisson spread.
	if b.Started < 800 || b.Started > 1200 {
		t.Errorf("started = %d, want ~1000", b.Started)
	}
	if b.Completed < b.Started*8/10 {
		t.Errorf("completed = %d of %d, most flows should finish", b.Completed, b.Started)
	}
	if b.Bytes < 50*units.MB {
		t.Errorf("bytes = %v, want ~100MB", b.Bytes)
	}
}

func TestBusinessStop(t *testing.T) {
	n, srv, clients := campus()
	b := StartBusiness(srv, clients, Business{FlowsPerSecond: 100}, 42)
	n.RunFor(time.Second)
	b.Stop()
	started := b.Started
	n.RunFor(5 * time.Second)
	if b.Started != started {
		t.Error("flows launched after Stop")
	}
}

func TestBusinessDeterminism(t *testing.T) {
	run := func() (int, units.ByteSize) {
		n, srv, clients := campus()
		b := StartBusiness(srv, clients, Business{FlowsPerSecond: 50}, 7)
		n.RunFor(5 * time.Second)
		return b.Completed, b.Bytes
	}
	c1, by1 := run()
	c2, by2 := run()
	if c1 != c2 || by1 != by2 {
		t.Errorf("nondeterministic: (%d,%v) vs (%d,%v)", c1, by1, c2, by2)
	}
}

func TestLHCMeshAggregate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation; skipped in -short")
	}
	n := netsim.New(1)
	sw1 := n.NewDevice("sw1", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	sw2 := n.NewDevice("sw2", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	n.Connect(sw1, sw2, netsim.LinkConfig{Rate: 40 * units.Gbps, Delay: 20 * time.Millisecond})
	var srcs, dsts []*netsim.Host
	for i := 0; i < 3; i++ {
		s := n.NewHost("src" + string(rune('a'+i)))
		n.Connect(s, sw1, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
		srcs = append(srcs, s)
		d := n.NewHost("dst" + string(rune('a'+i)))
		n.Connect(d, sw2, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
		dsts = append(dsts, d)
	}
	n.ComputeRoutes()
	m := StartLHCMesh(srcs, dsts, 2811, 2)
	if len(m.Conns) != 18 {
		t.Fatalf("conns = %d, want 3x3x2", len(m.Conns))
	}
	n.RunFor(5 * time.Second)
	agg := float64(m.Aggregate()) / 1e9
	// 3 sources x 10G access = 30G max offered; expect > 15G aggregate.
	if agg < 15 {
		t.Errorf("aggregate = %.1f Gbps, want > 15", agg)
	}
	for _, err := range n.AuditInvariants() {
		t.Errorf("audit: %v", err)
	}
}

func TestNOAAReforecastDataset(t *testing.T) {
	d := NOAAReforecast()
	if len(d.Files) != 273 {
		t.Errorf("files = %d, want 273", len(d.Files))
	}
	if d.Total() != units.ByteSize(239.5*1e9) {
		t.Errorf("total = %v, want 239.5GB", d.Total())
	}
}

func TestCarbon14Dataset(t *testing.T) {
	d := Carbon14()
	if len(d.Files) != 20 || d.Total() != 660*units.GB {
		t.Errorf("carbon14 = %d files, %v", len(d.Files), d.Total())
	}
}
