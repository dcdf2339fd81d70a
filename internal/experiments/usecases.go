package experiments

import (
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dtn"
	"repro/internal/firewall"
	"repro/internal/flowgen"
	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdma"
	"repro/internal/sdn"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// NOAAResult reproduces §6.3: the reforecast dataset repatriation.
type NOAAResult struct {
	FTPRate     units.BitRate // FTP server behind the firewall
	DTNRate     units.BitRate // Science DMZ DTN with Globus-style transfer
	DatasetSize units.ByteSize
	Files       int
	// DatasetTime is the 273-file / 239.5 GB job at the measured DTN
	// rate (paper: ~10 minutes at ~395 MB/s).
	DatasetTime time.Duration
	// FTPDatasetTime is the same job at the FTP rate (the "trickle").
	FTPDatasetTime time.Duration
	// Plan170TB extrapolates to the full 170 TB repatriation.
	Plan170TB time.Duration
}

// Speedup returns DTN/FTP (paper: "nearly 200 times").
func (r *NOAAResult) Speedup() float64 { return float64(r.DTNRate) / float64(r.FTPRate) }

// noaaWAN is the NERSC <-> NOAA Boulder path: ~25 ms RTT, 10G.
var noaaWAN = topo.WANConfig{Rate: 10 * units.Gbps, Delay: 12500 * time.Microsecond, MTU: 1500}

// NOAA measures both transfer paths and extrapolates the dataset job.
// The paper's numbers: 1-2 MB/s through the firewall; ~395 MB/s via the
// DTN; 239.5 GB in just over 10 minutes.
func NOAA(ctx *harness.Ctx) *NOAAResult {
	ds := flowgen.NOAAReforecast()
	res := &NOAAResult{DatasetSize: ds.Total(), Files: len(ds.Files)}

	// Before: FTP server behind the NOAA firewall (campus topology).
	c := topo.NewCampus(1, topo.CampusConfig{WAN: noaaWAN})
	ctx.Adopt("campus", c.Net)
	var ftp *dtn.Result
	dtn.LegacyFTP{}.Start(c.RemoteDTN, c.ScienceHost, 20*units.MB, func(r *dtn.Result) { ftp = r })
	c.Net.RunFor(3 * time.Minute)
	if ftp != nil {
		res.FTPRate = ftp.Throughput()
	}

	// After: Science DMZ DTN, parallel streams, storage provisioned at
	// ~400 MB/s (the measured NOAA DTN landing rate).
	d := topo.NewSimpleDMZ(2, topo.SimpleDMZConfig{
		WAN:     noaaWAN,
		DTNDisk: dtn.Disk{ReadRate: 3200 * units.Mbps, WriteRate: 3200 * units.Mbps},
	})
	ctx.Adopt("dmz", d.Net)
	var g *dtn.Result
	dtn.GridFTP{Streams: 4}.Start(d.RemoteDTN, d.DTN, 2*units.GB, func(r *dtn.Result) { g = r })
	d.Net.RunFor(2 * time.Minute)
	if g != nil {
		res.DTNRate = g.Throughput()
	}

	if res.DTNRate > 0 {
		res.DatasetTime = res.DTNRate.Serialize(res.DatasetSize)
		res.Plan170TB = res.DTNRate.Serialize(170 * units.TB)
	}
	if res.FTPRate > 0 {
		res.FTPDatasetTime = res.FTPRate.Serialize(res.DatasetSize)
	}
	return res
}

// Render produces the §6.3 table.
func (r *NOAAResult) Render() string {
	tb := stats.NewTable("§6.3: NOAA reforecast repatriation (NERSC -> Boulder)",
		"metric", "value")
	tb.Add("FTP behind firewall", fmt.Sprintf("%s (%.1f MB/s)", r.FTPRate, float64(r.FTPRate)/8e6))
	tb.Add("Science DMZ DTN", fmt.Sprintf("%s (%.0f MB/s)", r.DTNRate, float64(r.DTNRate)/8e6))
	tb.Add("speedup", fmt.Sprintf("%.0fx (paper: ~200x)", r.Speedup()))
	tb.Add("dataset", fmt.Sprintf("%d files, %v", r.Files, r.DatasetSize))
	tb.Add("dataset via DTN", fmtDur(r.DatasetTime)+" (paper: ~10 min)")
	tb.Add("dataset via FTP", fmtDur(r.FTPDatasetTime))
	tb.Add("full 170 TB plan", fmtDur(r.Plan170TB))
	return tb.String()
}

// NERSCResult reproduces §6.4: the carbon-14 collaboration between
// NERSC and OLCF.
type NERSCResult struct {
	// LegacyRate is the pre-DTN workflow: stock tools through the
	// general network (paper: a 33 GB file took "more than an entire
	// workday").
	LegacyRate units.BitRate
	// DTNRate is the DTN-to-DTN rate (paper: 200 MB/s).
	DTNRate units.BitRate
	// File33GB durations for one input file.
	Legacy33GB time.Duration
	DTN33GB    time.Duration
	// Job40TB durations for the full dataset (paper: < 3 days).
	DTN40TB time.Duration
}

// nerscWAN is the NERSC <-> OLCF path: ~70 ms RTT, 10G.
var nerscWAN = topo.WANConfig{Rate: 10 * units.Gbps, Delay: 35 * time.Millisecond, MTU: 1500}

// NERSC measures both workflows.
func NERSC(ctx *harness.Ctx) *NERSCResult {
	res := &NERSCResult{}

	// Legacy: untuned transfer through the general-purpose network.
	c := topo.NewCampus(1, topo.CampusConfig{WAN: nerscWAN})
	ctx.Adopt("campus", c.Net)
	var legacy *dtn.Result
	dtn.LegacyFTP{}.Start(c.RemoteDTN, c.ScienceHost, 10*units.MB, func(r *dtn.Result) { legacy = r })
	c.Net.RunFor(3 * time.Minute)
	if legacy != nil {
		res.LegacyRate = legacy.Throughput()
	}

	// DTN: mass-storage-backed DTNs at both ends; HPSS-era storage
	// sustains ~200 MB/s (1.6 Gb/s).
	d := topo.NewSimpleDMZ(2, topo.SimpleDMZConfig{
		WAN:     nerscWAN,
		DTNDisk: dtn.Disk{ReadRate: 1600 * units.Mbps, WriteRate: 1600 * units.Mbps},
	})
	ctx.Adopt("dmz", d.Net)
	var fast *dtn.Result
	dtn.GridFTP{Streams: 8}.Start(d.RemoteDTN, d.DTN, units.GB, func(r *dtn.Result) { fast = r })
	d.Net.RunFor(2 * time.Minute)
	if fast != nil {
		res.DTNRate = fast.Throughput()
	}

	if res.LegacyRate > 0 {
		res.Legacy33GB = res.LegacyRate.Serialize(33 * units.GB)
	}
	if res.DTNRate > 0 {
		res.DTN33GB = res.DTNRate.Serialize(33 * units.GB)
		res.DTN40TB = res.DTNRate.Serialize(40 * units.TB)
	}
	return res
}

// Render produces the §6.4 table.
func (r *NERSCResult) Render() string {
	tb := stats.NewTable("§6.4: NERSC <-> OLCF carbon-14 dataset",
		"metric", "value")
	tb.Add("legacy rate", fmt.Sprintf("%s (%.2f MB/s)", r.LegacyRate, float64(r.LegacyRate)/8e6))
	tb.Add("DTN rate", fmt.Sprintf("%s (%.0f MB/s, paper: 200 MB/s)", r.DTNRate, float64(r.DTNRate)/8e6))
	tb.Add("33 GB file, legacy", fmtDur(r.Legacy33GB)+" (paper: 'more than an entire workday')")
	tb.Add("33 GB file, DTN", fmtDur(r.DTN33GB))
	tb.Add("40 TB dataset, DTN", fmtDur(r.DTN40TB)+" (paper: < 3 days)")
	tb.Add("WAN gain", fmt.Sprintf("%.0fx (paper: >= 20x)", float64(r.DTNRate)/float64(r.LegacyRate)))
	return tb.String()
}

// RoCEResult reproduces §7.1: RDMA over Converged Ethernet on circuits.
type RoCEResult struct {
	CircuitGbps   float64 // RoCE on a reserved circuit (paper: 39.5)
	NoCircuitGbps float64 // RoCE against competing traffic
	TCPGbps       float64 // tuned TCP on the same clean path
	CPUFactor     float64 // TCP/RoCE CPU cost (paper: ~50x)
	RoCECores     float64 // cores at the circuit rate
	TCPCores      float64
}

// RoCE runs the three comparisons on a 40GE path.
func RoCE(ctx *harness.Ctx) *RoCEResult {
	res := &RoCEResult{
		CPUFactor: rdma.TCPCPUCost.CyclesPerByte / rdma.RoCECPUCost.CyclesPerByte,
		RoCECores: rdma.RoCECPUCost.Utilization(39.5 * units.Gbps),
		TCPCores:  rdma.TCPCPUCost.Utilization(39.5 * units.Gbps),
	}
	build := func(seed int64) (*netsim.Network, *netsim.Host, *netsim.Host, *netsim.Host) {
		n := ctx.Adopt(fmt.Sprintf("path-%d", seed), netsim.New(seed))
		d1 := n.NewHost("dtn1")
		d2 := n.NewHost("dtn2")
		x := n.NewHost("cross")
		sw1 := n.NewDevice("sw1", netsim.DeviceConfig{EgressBuffer: 8 * units.MB})
		sw2 := n.NewDevice("sw2", netsim.DeviceConfig{EgressBuffer: 8 * units.MB})
		cfg := netsim.LinkConfig{Rate: 40 * units.Gbps, Delay: 10 * time.Microsecond, MTU: 9000}
		wan := cfg
		wan.Delay = 10 * time.Millisecond
		n.Connect(d1, sw1, cfg)
		n.Connect(sw1, sw2, wan)
		n.Connect(sw2, d2, cfg)
		n.Connect(x, sw1, cfg)
		n.ComputeRoutes()
		return n, d1, d2, x
	}

	// Clean circuit: the Kissel et al. measurement.
	n, d1, d2, _ := build(1)
	svc := circuit.NewService(n, "wan")
	svc.Reserve("roce", "dtn1", "dtn2", 39800*units.Mbps)
	var r1 *rdma.Result
	rdma.Transfer(d1, d2, 4791, 4*units.GB, rdma.Options{Rate: 39.5 * units.Gbps}, func(r *rdma.Result) { r1 = r })
	n.Run()
	if r1 != nil {
		res.CircuitGbps = float64(r1.Throughput()) / 1e9
	}

	// Same path, no circuit, competing unresponsive 25G stream.
	n2, e1, e2, x := build(2)
	e2.Bind(netsim.ProtoUDP, 9, netsim.HandlerFunc(func(*netsim.Packet) {}))
	blast := netsim.FlowKey{Src: "cross", Dst: "dtn2", SrcPort: 50000, DstPort: 9, Proto: netsim.ProtoUDP}
	n2.Sched.Every((25 * units.Gbps).Serialize(9000), func() {
		x.Send(&netsim.Packet{Flow: blast, Size: 9000})
	})
	var r2 *rdma.Result
	f := rdma.Transfer(e1, e2, 4791, units.GB, rdma.Options{Rate: 19 * units.Gbps}, func(r *rdma.Result) { r2 = r })
	n2.RunFor(10 * time.Second)
	if r2 == nil {
		r2 = f.Result()
	}
	res.NoCircuitGbps = float64(r2.Throughput()) / 1e9

	// Tuned TCP on the clean circuit path for the CPU comparison.
	n3, t1, t2, _ := build(3)
	srv := tcp.NewServer(t2, 5001, tcp.Tuned())
	conn := tcp.Dial(t1, srv, -1, tcp.Tuned(), nil)
	n3.RunFor(10 * time.Second)
	res.TCPGbps = float64(conn.Stats().Throughput()) / 1e9
	return res
}

// Render produces the §7.1 table.
func (r *RoCEResult) Render() string {
	tb := stats.NewTable("§7.1: RoCE on virtual circuits (40GE)",
		"metric", "value")
	tb.Add("RoCE on reserved circuit", fmt.Sprintf("%.1f Gbps (paper: 39.5)", r.CircuitGbps))
	tb.Add("RoCE vs competing traffic", fmt.Sprintf("%.1f Gbps (collapses)", r.NoCircuitGbps))
	tb.Add("tuned TCP, same path", fmt.Sprintf("%.1f Gbps", r.TCPGbps))
	tb.Add("CPU cost ratio (TCP/RoCE)", fmt.Sprintf("%.0fx (paper: ~50x)", r.CPUFactor))
	tb.Add("cores at 39.5 Gbps", fmt.Sprintf("TCP %.2f vs RoCE %.3f", r.TCPCores, r.RoCECores))
	return tb.String()
}

// SDNResult reproduces §7.3: OpenFlow firewall bypass gated by an IDS.
type SDNResult struct {
	FirewalledGbps float64 // everything through the firewall
	BypassGbps     float64 // IDS-verified flow bypasses
	SetupInspected uint64  // packets the firewall saw with bypass on
	Verified       bool
}

// SDNBypass measures the §7.3 design on a DMZ with both a firewalled and
// a direct path.
func SDNBypass(ctx *harness.Ctx) *SDNResult {
	res := &SDNResult{}
	run := func(bypass bool) float64 {
		n := ctx.Adopt(fmt.Sprintf("bypass=%v", bypass), netsim.New(5))
		remote := n.NewHost("remote")
		host := n.NewHost("dtn")
		border := n.NewDevice("border", netsim.DeviceConfig{EgressBuffer: 16 * units.MB})
		dmzsw := n.NewDevice("dmzsw", netsim.DeviceConfig{EgressBuffer: 16 * units.MB})
		fw := firewall.New(n, "fw", firewall.Config{ProcRate: 800 * units.Mbps, InputBuffer: 512 * units.KB})

		n.Connect(remote, border, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 5 * time.Millisecond})
		bfw := n.Connect(border, fw, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
		fsw := n.Connect(fw, dmzsw, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
		direct := n.Connect(border, dmzsw, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
		n.Connect(dmzsw, host, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
		n.ComputeRoutes()
		border.SetRoute("dtn", bfw.A)
		fw.SetRoute("dtn", fsw.A)
		dmzsw.SetRoute("remote", fsw.B)
		fw.SetRoute("remote", bfw.B)

		if bypass {
			ctl := sdn.NewController("ctl")
			det := ids.New(n, "ids")
			det.VerifyAfter = 20
			for _, p := range dmzsw.Ports() {
				det.Watch(p)
			}
			sdn.NewBypass(ctl.Manage(border), border.RouteTo("dtn"), direct.A).GateWithIDS(det)
			sdn.NewBypass(ctl.Manage(dmzsw), dmzsw.RouteTo("remote"), direct.B).GateWithIDS(det)
			defer func() {
				res.Verified = det.Verified(netsim.FlowKey{}) || len(det.Flows()) > 0
				res.SetupInspected = fw.Stats.Inspected
			}()
		}
		var st *tcp.Stats
		srv := tcp.NewServer(host, 2811, tcp.Tuned())
		tcp.Dial(remote, srv, 300*units.MB, tcp.Tuned(), func(s *tcp.Stats) { st = s })
		n.RunFor(time.Minute)
		if st == nil {
			return 0
		}
		return float64(st.Throughput()) / 1e9
	}
	res.FirewalledGbps = run(false)
	res.BypassGbps = run(true)
	return res
}

// Render produces the §7.3 table.
func (r *SDNResult) Render() string {
	tb := stats.NewTable("§7.3: OpenFlow IDS-gated firewall bypass",
		"metric", "value")
	tb.Add("all traffic through firewall", fmt.Sprintf("%.2f Gbps", r.FirewalledGbps))
	tb.Add("with IDS-gated bypass", fmt.Sprintf("%.2f Gbps", r.BypassGbps))
	tb.Add("speedup", fmt.Sprintf("%.1fx", r.BypassGbps/r.FirewalledGbps))
	tb.Add("firewall saw (setup only)", fmt.Sprint(r.SetupInspected))
	return tb.String()
}

// AuditResult audits every notional design in the paper.
type AuditResult struct {
	Rows []AuditRow
}

// AuditRow is one design's audit summary.
type AuditRow struct {
	Design    string
	Critical  int
	Warnings  int
	Compliant bool
}

// AuditDesigns audits the campus (non-compliant by construction), the
// retrofitted campus, and the simple DMZ.
func AuditDesigns(ctx *harness.Ctx) *AuditResult {
	res := &AuditResult{}

	c := topo.NewCampus(1, topo.CampusConfig{})
	ctx.Adopt("campus", c.Net)
	r1 := core.Audit(core.Deployment{
		Net: c.Net, Border: c.Border,
		DTNs:     []*dtn.Node{c.ScienceHost},
		WANHosts: []string{"remote-dtn"},
	})
	res.Rows = append(res.Rows, AuditRow{"general-purpose campus", r1.Count(core.SeverityCritical), r1.Count(core.SeverityWarning), r1.Compliant()})

	c2 := topo.NewCampus(2, topo.CampusConfig{})
	ctx.Adopt("retrofit", c2.Net)
	dep := core.Retrofit(c2.Net, c2.Border, []string{"remote-dtn"}, core.RetrofitConfig{})
	r2 := core.Audit(*dep)
	res.Rows = append(res.Rows, AuditRow{"retrofitted campus (Retrofit)", r2.Count(core.SeverityCritical), r2.Count(core.SeverityWarning), r2.Compliant()})

	return res
}

// Render produces the audit table.
func (r *AuditResult) Render() string {
	tb := stats.NewTable("Pattern audit across designs", "design", "critical", "warnings", "compliant")
	for _, row := range r.Rows {
		tb.Addf(row.Design, row.Critical, row.Warnings, row.Compliant)
	}
	return tb.String()
}
