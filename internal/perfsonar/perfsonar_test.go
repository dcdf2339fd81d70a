package perfsonar

import (
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// star builds N measurement hosts around one core switch, 10G links.
func star(n int, wanDelay time.Duration) (*netsim.Network, []*netsim.Host) {
	net := netsim.New(1)
	core := net.NewDevice("core", netsim.DeviceConfig{EgressBuffer: 16 * units.MB})
	var hosts []*netsim.Host
	for i := 0; i < n; i++ {
		h := net.NewHost(psName(i))
		net.Connect(h, core, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: wanDelay})
		hosts = append(hosts, h)
	}
	net.ComputeRoutes()
	return net, hosts
}

func psName(i int) string { return "ps" + string(rune('a'+i)) }

func TestOWAMPCleanPathZeroLoss(t *testing.T) {
	net, hosts := star(2, time.Millisecond)
	m := NewMesh(hosts...)
	m.Toolkits[0].StartOWAMP(m.Toolkits[1], 10*time.Millisecond)
	net.RunFor(30 * time.Second)
	path := PathKey{Src: "psa", Dst: "psb"}
	loss, ok := m.Archive.MeanLoss(path, 0)
	if !ok {
		t.Fatal("no loss measurements archived")
	}
	if loss != 0 {
		t.Errorf("clean path loss = %v, want 0", loss)
	}
	latest, _ := m.Archive.Latest(path, KindLoss)
	// One-way delay = propagation (2 hops x 1ms) + serialization noise.
	if latest.Delay < 2*time.Millisecond || latest.Delay > 3*time.Millisecond {
		t.Errorf("delay = %v, want ~2ms", latest.Delay)
	}
}

func TestOWAMPDetectsSoftFailure(t *testing.T) {
	// The §2.1 scenario end-to-end: a failing link drops 1/22000 packets.
	// SNMP counters show nothing; OWAMP sees the loss.
	net := netsim.New(1)
	a := net.NewHost("psa")
	b := net.NewHost("psb")
	core := net.NewDevice("core", netsim.DeviceConfig{})
	net.Connect(a, core, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: time.Millisecond})
	bad := net.Connect(core, b, netsim.LinkConfig{
		Rate: 10 * units.Gbps, Delay: time.Millisecond,
		Loss: &netsim.PeriodicLoss{N: 220}, // accelerated for probe rates
	})
	net.ComputeRoutes()
	m := NewMesh(a, b)
	al := &Alerter{LossThreshold: 0.001}
	al.Watch(m.Archive)
	m.Toolkits[0].StartOWAMP(m.Toolkits[1], time.Millisecond) // 1000/s
	net.RunFor(60 * time.Second)

	loss, ok := m.Archive.MeanLoss(PathKey{Src: "psa", Dst: "psb"}, 0)
	if !ok {
		t.Fatal("no measurements")
	}
	if loss < 0.003 || loss > 0.006 {
		t.Errorf("measured loss = %.5f, want ~1/220=0.0045", loss)
	}
	if len(al.Alerts) == 0 {
		t.Error("alerter should have fired on soft-failure loss")
	}
	// The ground truth the paper emphasizes: device counters are silent.
	for _, p := range core.Ports() {
		if p.Counters.QueueDrops != 0 {
			t.Error("SNMP-visible drops should be zero for wire loss")
		}
	}
	if bad.WireDrops() == 0 {
		t.Error("wire should have dropped probes")
	}
}

func TestBWCTLMeasuresThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation; skipped in -short")
	}
	net, hosts := star(2, 5*time.Millisecond)
	m := NewMesh(hosts...)
	m.Toolkits[0].RunBWCTL(m.Toolkits[1], 3*time.Second, tcp.Tuned())
	net.RunFor(5 * time.Second)
	got, ok := m.Archive.Latest(PathKey{Src: "psa", Dst: "psb"}, KindThroughput)
	if !ok {
		t.Fatal("no throughput measurement")
	}
	gbps := float64(got.Throughput) / 1e9
	if gbps < 5 {
		t.Errorf("BWCTL measured %.2f Gbps on a clean 10G path, want > 5", gbps)
	}
}

func TestMeshFullCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation; skipped in -short")
	}
	net, hosts := star(4, time.Millisecond)
	m := NewMesh(hosts...)
	m.StartOWAMP(50 * time.Millisecond)
	m.StartBWCTL(60*time.Second, time.Second, tcp.Tuned())
	net.RunFor(30 * time.Second)
	// 4 sites -> 12 ordered pairs, each with loss data.
	paths := m.Archive.Paths()
	lossPaths := 0
	for _, p := range paths {
		if _, ok := m.Archive.Latest(p, KindLoss); ok {
			lossPaths++
		}
	}
	if lossPaths != 12 {
		t.Errorf("loss-measured paths = %d, want 12", lossPaths)
	}
	thrPaths := 0
	for _, p := range paths {
		if _, ok := m.Archive.Latest(p, KindThroughput); ok {
			thrPaths++
		}
	}
	if thrPaths != 12 {
		t.Errorf("throughput-measured paths = %d, want 12", thrPaths)
	}
}

func TestDashboardRendersDegradedPath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation; skipped in -short")
	}
	// Mesh with one soft-failing access link: the dashboard must show
	// BAD/WRN cells for paths via that link and OK elsewhere.
	net := netsim.New(1)
	core := net.NewDevice("core", netsim.DeviceConfig{EgressBuffer: 16 * units.MB})
	var hosts []*netsim.Host
	for i := 0; i < 3; i++ {
		h := net.NewHost(psName(i))
		cfg := netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 2 * time.Millisecond}
		if i == 2 {
			cfg.Loss = netsim.RandomLoss{P: 0.002} // failing optics on psc
		}
		net.Connect(h, core, cfg)
		hosts = append(hosts, h)
	}
	net.ComputeRoutes()
	m := NewMesh(hosts...)
	m.StartBWCTL(30*time.Second, 2*time.Second, tcp.Tuned())
	net.RunFor(30 * time.Second)

	cfg := DashboardConfig{Good: 4 * units.Gbps, Warn: units.Gbps}
	grid := Dashboard(m.Archive, cfg, []string{"psa", "psb", "psc"})
	if !strings.Contains(grid, "OK") {
		t.Errorf("dashboard should show healthy cells:\n%s", grid)
	}
	if !strings.Contains(grid, "BAD") && !strings.Contains(grid, "WRN") {
		t.Errorf("dashboard should show the degraded path:\n%s", grid)
	}
	// Worst path must involve psc.
	worst := WorstPaths(m.Archive, 1)
	if len(worst) != 1 {
		t.Fatal("no worst path")
	}
	if worst[0].Path.Src != "psc" && worst[0].Path.Dst != "psc" {
		t.Errorf("worst path = %v, want one involving psc", worst[0].Path)
	}
}

func TestDashboardNoData(t *testing.T) {
	a := NewArchive()
	grid := Dashboard(a, DashboardConfig{Good: units.Gbps, Warn: 100 * units.Mbps}, []string{"x", "y"})
	if !strings.Contains(grid, " - ") {
		t.Errorf("empty archive should render no-data cells:\n%s", grid)
	}
}

func TestThroughputFloorAlert(t *testing.T) {
	a := NewArchive()
	al := &Alerter{ThroughputFloor: units.Gbps}
	al.Watch(a)
	var fired []Alert
	al.OnAlert = func(x Alert) { fired = append(fired, x) }
	a.Add(Measurement{Path: PathKey{"a", "b"}, Kind: KindThroughput, Throughput: 500 * units.Mbps})
	a.Add(Measurement{Path: PathKey{"a", "c"}, Kind: KindThroughput, Throughput: 5 * units.Gbps})
	if len(al.Alerts) != 1 || len(fired) != 1 {
		t.Fatalf("alerts = %d, want 1", len(al.Alerts))
	}
	if al.Alerts[0].Kind != AlertThroughput {
		t.Error("wrong alert kind")
	}
	if paths := al.AlertedPaths(); len(paths) != 1 || paths[0] != (PathKey{"a", "b"}) {
		t.Errorf("alerted paths = %v", paths)
	}
}

func TestArchiveQueryAndSince(t *testing.T) {
	a := NewArchive()
	p := PathKey{"a", "b"}
	a.Add(Measurement{At: 100, Path: p, Kind: KindLoss, Loss: 0.1})
	a.Add(Measurement{At: 200, Path: p, Kind: KindLoss, Loss: 0.2})
	a.Add(Measurement{At: 300, Path: p, Kind: KindThroughput, Throughput: units.Gbps})
	if got := a.Query(p, KindLoss, 150); len(got) != 1 || got[0].Loss != 0.2 {
		t.Errorf("Query since = %v", got)
	}
	if m, ok := a.Latest(p, KindLoss); !ok || m.Loss != 0.2 {
		t.Error("Latest loss wrong")
	}
	if _, ok := a.Latest(PathKey{"x", "y"}, KindLoss); ok {
		t.Error("Latest for unknown path should be !ok")
	}
	if mean, _ := a.MeanLoss(p, 0); mean < 0.149 || mean > 0.151 {
		t.Errorf("mean loss = %v", mean)
	}
	if _, ok := a.MeanLoss(PathKey{"x", "y"}, 0); ok {
		t.Error("MeanLoss for unknown path should be !ok")
	}
}

func TestMeasurementStrings(t *testing.T) {
	m := Measurement{Path: PathKey{"a", "b"}, Kind: KindLoss, Loss: 0.0046}
	if !strings.Contains(m.String(), "loss") {
		t.Error("loss String")
	}
	m2 := Measurement{Path: PathKey{"a", "b"}, Kind: KindThroughput, Throughput: units.Gbps}
	if !strings.Contains(m2.String(), "throughput") {
		t.Error("throughput String")
	}
	al := Alert{Path: PathKey{"a", "b"}, Kind: AlertLoss, Value: 0.01}
	if !strings.Contains(al.String(), "ALERT") {
		t.Error("alert String")
	}
	if KindLoss.String() != "loss" || KindThroughput.String() != "throughput" {
		t.Error("kind String")
	}
	if AlertLoss.String() != "loss" || AlertThroughput.String() != "throughput" {
		t.Error("alert kind String")
	}
}

func TestOwampSessionStop(t *testing.T) {
	net, hosts := star(2, time.Millisecond)
	m := NewMesh(hosts...)
	s := m.Toolkits[0].StartOWAMP(m.Toolkits[1], 10*time.Millisecond)
	net.RunFor(time.Second)
	sent := s.Sent()
	if sent < 90 {
		t.Errorf("sent = %d, want ~100", sent)
	}
	s.Stop()
	net.RunFor(time.Second)
	if s.Sent() != sent {
		t.Error("probes continued after Stop")
	}
}
