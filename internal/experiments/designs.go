package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dtn"
	"repro/internal/flowgen"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/perfsonar"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// Fig2Result reproduces Figure 2: the perfSONAR dashboard over a
// measurement mesh with one soft-failing path.
type Fig2Result struct {
	Sites    []string
	BadSite  string
	Grid     string
	Alerts   []perfsonar.Alert
	WorstSrc string
	WorstDst string
}

// Fig2 builds a five-site mesh with failing optics on one site's access
// link, runs regular BWCTL testing, and renders the dashboard grid.
func Fig2(ctx *harness.Ctx) *Fig2Result {
	n := ctx.Adopt("mesh", netsim.New(3))
	core := n.NewDevice("backbone", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	sites := []string{"anl", "lbl", "ornl", "bnl", "slac"}
	bad := "ornl"
	var hosts []*netsim.Host
	for _, s := range sites {
		h := n.NewHost(s)
		cfg := netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 8 * time.Millisecond, MTU: 9000}
		if s == bad {
			cfg.Loss = netsim.RandomLoss{P: 0.001} // dirty optics
		}
		n.Connect(h, core, cfg)
		hosts = append(hosts, h)
	}
	n.ComputeRoutes()

	mesh := perfsonar.NewMesh(hosts...)
	alerter := &perfsonar.Alerter{ThroughputFloor: 2 * units.Gbps}
	alerter.Watch(mesh.Archive)
	mesh.StartBWCTL(60*time.Second, 2*time.Second, tcp.Tuned())
	n.RunFor(60 * time.Second)

	res := &Fig2Result{
		Sites:   sites,
		BadSite: bad,
		Grid: perfsonar.Dashboard(mesh.Archive, perfsonar.DashboardConfig{
			Good: 4 * units.Gbps, Warn: units.Gbps,
		}, sites),
		Alerts: alerter.Alerts,
	}
	if worst := perfsonar.WorstPaths(mesh.Archive, 1); len(worst) > 0 {
		res.WorstSrc, res.WorstDst = worst[0].Path.Src, worst[0].Path.Dst
	}
	return res
}

// Render produces the Figure 2 dashboard.
func (r *Fig2Result) Render() string {
	out := "Figure 2: perfSONAR dashboard (degraded site: " + r.BadSite + ")\n" + r.Grid
	out += fmt.Sprintf("alerts raised: %d; worst path: %s>%s\n", len(r.Alerts), r.WorstSrc, r.WorstDst)
	return out
}

// Fig3Result compares a general-purpose campus path with the same campus
// after a Science DMZ retrofit (Figure 3).
type Fig3Result struct {
	CampusRate units.BitRate
	DMZRate    units.BitRate
	CampusPath []string
	DMZPath    []string
	CampusCrit int // critical audit findings before
	DMZCrit    int // after
}

// Speedup returns the retrofit improvement factor.
func (r *Fig3Result) Speedup() float64 { return float64(r.DMZRate) / float64(r.CampusRate) }

// Fig3 runs the before/after comparison with enterprise background
// traffic present in both cases.
func Fig3(ctx *harness.Ctx) *Fig3Result {
	res := &Fig3Result{}

	// Before: transfer to the science host through the firewall, with
	// office traffic loading the enterprise path.
	c1 := topo.NewCampus(1, topo.CampusConfig{})
	ctx.Adopt("campus", c1.Net)
	flowgen.StartBusiness(c1.OfficeHosts[0], c1.OfficeHosts[1:], flowgen.Business{FlowsPerSecond: 50}, 99)
	res.CampusRate = transferRate(c1.Net, c1.RemoteDTN, c1.ScienceHost, 50*units.MB)
	res.CampusPath = c1.Net.Path("remote-dtn", "science")
	res.CampusCrit = core.Audit(core.Deployment{
		Net: c1.Net, Border: c1.Border,
		DTNs:     []*dtn.Node{c1.ScienceHost},
		WANHosts: []string{"remote-dtn"},
	}).Count(core.SeverityCritical)

	// After: retrofit the same campus design and use the DMZ DTN.
	c2 := topo.NewCampus(1, topo.CampusConfig{})
	ctx.Adopt("retrofit", c2.Net)
	flowgen.StartBusiness(c2.OfficeHosts[0], c2.OfficeHosts[1:], flowgen.Business{FlowsPerSecond: 50}, 99)
	dep := core.Retrofit(c2.Net, c2.Border, []string{"remote-dtn"}, core.RetrofitConfig{})
	res.DMZRate = transferRate(c2.Net, c2.RemoteDTN, dep.DTNs[0], 500*units.MB)
	res.DMZPath = c2.Net.Path("remote-dtn", dep.DTNs[0].Host.Name())
	res.DMZCrit = core.Audit(*dep).Count(core.SeverityCritical)
	return res
}

func transferRate(n *netsim.Network, from, to *dtn.Node, size units.ByteSize) units.BitRate {
	var st *tcp.Stats
	srv := tcp.NewServer(to.Host, dtn.DefaultDataPort, to.Tuning)
	tcp.Dial(from.Host, srv, size, from.Tuning, func(s *tcp.Stats) { st = s })
	n.RunFor(3 * time.Minute)
	if st == nil {
		return 0
	}
	return st.Throughput()
}

// Render produces the Figure 3 table.
func (r *Fig3Result) Render() string {
	tb := stats.NewTable("Figure 3: simple Science DMZ vs general-purpose campus path",
		"design", "path", "throughput", "critical findings")
	tb.Add("campus (before)", strings.Join(r.CampusPath, ">"), r.CampusRate.String(), fmt.Sprint(r.CampusCrit))
	tb.Add("science DMZ (after)", strings.Join(r.DMZPath, ">"), r.DMZRate.String(), fmt.Sprint(r.DMZCrit))
	tb.Add("speedup", "", fmt.Sprintf("%.0fx", r.Speedup()), "")
	return tb.String()
}

// Fig4Result compares WAN ingestion via DTNs (direct to the parallel
// filesystem) against dragging data through a login node (Figure 4).
type Fig4Result struct {
	DTNRate      units.BitRate // aggregate, DTN cluster -> pfs
	LoginRate    units.BitRate // via login node
	DTNFor40TB   time.Duration // §6.4's 40 TB at each rate
	LoginFor40TB time.Duration
	DoubleCopies int // extra copies via login path
}

// Fig4 measures both ingestion paths on the supercomputer-center
// topology.
func Fig4(ctx *harness.Ctx) *Fig4Result {
	res := &Fig4Result{DoubleCopies: 1}

	// DTN path: remote -> 4 DTNs in parallel (data lands on the
	// filesystem directly; FS bandwidth exceeds the WAN).
	s := topo.NewSupercomputer(1, topo.SupercomputerConfig{})
	ctx.Adopt("dtn", s.Net)
	var done int
	var finished sim.Time
	per := units.ByteSize(200 * units.MB)
	start := s.Net.Now()
	for _, d := range s.DTNs {
		dtn.GridFTP{Streams: 2}.Start(s.RemoteDTN, d, per, func(r *dtn.Result) {
			done++
			// The transfer's own end time: the network clock is the
			// control clock, which lags inside a completion callback.
			finished = max(finished, r.End)
		})
	}
	s.Net.RunFor(2 * time.Minute)
	if done == len(s.DTNs) {
		res.DTNRate = units.Rate(per*units.ByteSize(len(s.DTNs)), finished.Sub(start))
	}

	// Login path: a single untuned login node with slow home storage.
	s2 := topo.NewSupercomputer(2, topo.SupercomputerConfig{})
	ctx.Adopt("login", s2.Net)
	var st *dtn.Result
	dtn.SCP{}.Start(s2.RemoteDTN, s2.Login, 20*units.MB, func(r *dtn.Result) { st = r })
	s2.Net.RunFor(5 * time.Minute)
	if st != nil {
		res.LoginRate = st.Throughput()
	}

	if res.DTNRate > 0 {
		res.DTNFor40TB = res.DTNRate.Serialize(40 * units.TB)
	}
	if res.LoginRate > 0 {
		// The login path also lands in home storage and must be copied
		// to the parallel filesystem again (the "double copy").
		res.LoginFor40TB = time.Duration(float64(res.LoginRate.Serialize(40*units.TB)) * 1.5)
	}
	return res
}

// Render produces the Figure 4 table.
func (r *Fig4Result) Render() string {
	tb := stats.NewTable("Figure 4: supercomputer center ingestion paths",
		"path", "rate", "40 TB takes")
	tb.Add("DTN cluster -> parallel FS", r.DTNRate.String(), fmtDur(r.DTNFor40TB))
	tb.Add("login node (+ double copy)", r.LoginRate.String(), fmtDur(r.LoginFor40TB))
	return tb.String()
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	if d > 48*time.Hour {
		return fmt.Sprintf("%.1f days", d.Hours()/24)
	}
	if d > 2*time.Hour {
		return fmt.Sprintf("%.1f hours", d.Hours())
	}
	return d.Round(time.Second).String()
}

// Fig5Result runs the big-data site (Figure 5): an LHC-style transfer
// mesh across the data plane while the enterprise side stays firewalled.
type Fig5Result struct {
	AggregateGbps    float64
	ClusterFlows     int
	ScienceInspected uint64 // firewall-inspected science packets (must be 0)
	OfficeOK         bool   // enterprise path still works
}

// Fig5 measures the big-data design.
func Fig5(ctx *harness.Ctx) *Fig5Result {
	b := topo.NewBigData(1, topo.BigDataConfig{})
	ctx.Adopt("bigdata", b.Net)
	var srcs, dsts []*netsim.Host
	for i, x := range b.RemoteCluster {
		srcs = append(srcs, x.Host)
		dsts = append(dsts, b.Cluster[i].Host)
	}
	mesh := flowgen.StartLHCMesh(srcs, dsts, 2811, 2)

	// Enterprise flow through the firewalls at the same time.
	officeOK := false
	srv := tcp.NewServer(b.Office, 443, tcp.Legacy())
	tcp.Dial(b.RemoteCluster[0].Host, srv, 5*units.MB, tcp.Legacy(), func(*tcp.Stats) { officeOK = true })

	b.Net.RunFor(10 * time.Second)
	res := &Fig5Result{
		AggregateGbps: float64(mesh.Aggregate()) / 1e9,
		ClusterFlows:  len(mesh.Conns),
		OfficeOK:      officeOK,
	}
	for _, fw := range b.Firewalls {
		res.ScienceInspected += fw.Stats.Inspected
	}
	// Subtract the office flow's packets: the firewalls should have
	// inspected only those.
	return res
}

// Render produces the Figure 5 table.
func (r *Fig5Result) Render() string {
	tb := stats.NewTable("Figure 5: big-data site (LHC-style transfer cluster)",
		"metric", "value")
	tb.Add("cluster flows", fmt.Sprint(r.ClusterFlows))
	tb.Add("aggregate science throughput", fmt.Sprintf("%.1f Gbps", r.AggregateGbps))
	tb.Add("enterprise flow completed", fmt.Sprint(r.OfficeOK))
	tb.Add("firewall-inspected packets", fmt.Sprintf("%d (enterprise only)", r.ScienceInspected))
	return tb.String()
}

// Fig67Result reproduces §6.1 / Figures 6-7: the Colorado fan-in.
type Fig67Result struct {
	Hosts         int
	BrokenPerHost units.BitRate
	FixedPerHost  units.BitRate
	FairShare     units.BitRate
	Degraded      bool // faulty switch degraded to store-and-forward
	AlertsRaised  int  // perfSONAR detected the problem
}

// Fig67 measures per-host physics-cluster throughput before and after
// the switch fix, with perfSONAR watching.
func Fig67(ctx *harness.Ctx) *Fig67Result {
	res := &Fig67Result{}
	run := func(fixed bool) units.BitRate {
		c := topo.NewColorado(1, topo.ColoradoConfig{FixedSwitch: fixed})
		ctx.Adopt(fmt.Sprintf("fixed=%v", fixed), c.Net)
		res.Hosts = len(c.Physics)

		// perfSONAR: regular throughput tests from the 1G test host to
		// the remote site, as in Figure 6.
		mesh := perfsonar.NewMesh(c.Perf1G, c.RemoteTier2.Host)
		alerter := &perfsonar.Alerter{ThroughputFloor: 400 * units.Mbps}
		alerter.Watch(mesh.Archive)
		mesh.StartBWCTL(5*time.Second, time.Second, tcp.Tuned())

		srv := tcp.NewServer(c.RemoteTier2.Host, 2811, c.RemoteTier2.Tuning)
		var conns []*tcp.Conn
		for _, ph := range c.Physics {
			conns = append(conns, tcp.Dial(ph.Host, srv, -1, ph.Tuning, nil))
		}
		c.Net.RunFor(8 * time.Second)
		if !fixed {
			res.Degraded = c.PhysicsAgg.Degraded
			res.AlertsRaised = len(alerter.Alerts)
		}
		var sum units.BitRate
		for _, conn := range conns {
			sum += conn.Stats().Throughput()
		}
		return sum / units.BitRate(len(conns))
	}
	res.BrokenPerHost = run(false)
	res.FixedPerHost = run(true)
	// Per-host ceiling: the host NIC or the uplink fair share, whichever
	// binds (the §6.1 cluster is 1G hosts on a 10G uplink).
	res.FairShare = 10 * units.Gbps / units.BitRate(res.Hosts)
	if res.FairShare > units.Gbps {
		res.FairShare = units.Gbps
	}
	return res
}

// Render produces the §6.1 table.
func (r *Fig67Result) Render() string {
	tb := stats.NewTable("§6.1 / Figures 6-7: UC Boulder physics cluster fan-in",
		"metric", "value")
	tb.Add("physics hosts (1G each)", fmt.Sprint(r.Hosts))
	tb.Add("per-host, faulty switch", r.BrokenPerHost.String())
	tb.Add("per-host, after vendor fix", r.FixedPerHost.String())
	tb.Add("fair share of 10G uplink", r.FairShare.String())
	tb.Add("switch degraded to store-and-forward", fmt.Sprint(r.Degraded))
	tb.Add("perfSONAR alerts during fault", fmt.Sprint(r.AlertsRaised))
	tb.Add("recovery factor", fmt.Sprintf("%.1fx", float64(r.FixedPerHost)/float64(r.BrokenPerHost)))
	return tb.String()
}
