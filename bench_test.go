// Package repro's benchmark harness regenerates every figure and
// quantitative claim in the paper (see DESIGN.md §3 for the index) and
// reports the headline numbers as benchmark metrics. Each benchmark runs
// a full simulated experiment per iteration — expect seconds per
// iteration; Go's default -benchtime settles at N=1.
//
//	go test -bench=. -benchmem
//
// Ablation benchmarks at the bottom quantify the design choices the
// paper argues for: SACK recovery, parallel streams, switch buffer depth
// and jumbo frames.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dtn"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/units"
)

func BenchmarkFig1ThroughputVsRTT(b *testing.B) {
	var res *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig1(experiments.Fig1Config{
			RTTs:     []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond},
			Duration: 6 * time.Second,
		})
	}
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(float64(last.LossFree)/1e9, "lossfree-80ms-Gbps")
	b.ReportMetric(float64(last.Reno)/1e9, "reno-80ms-Gbps")
	b.ReportMetric(float64(last.HTCP)/1e9, "htcp-80ms-Gbps")
	b.ReportMetric(float64(last.Mathis)/1e9, "mathis-80ms-Gbps")
}

func BenchmarkFig2Dashboard(b *testing.B) {
	var res *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig2()
	}
	b.ReportMetric(float64(len(res.Alerts)), "alerts")
}

func BenchmarkFig3SimpleDMZ(b *testing.B) {
	var res *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig3()
	}
	b.ReportMetric(float64(res.CampusRate)/1e6, "campus-Mbps")
	b.ReportMetric(float64(res.DMZRate)/1e9, "dmz-Gbps")
	b.ReportMetric(res.Speedup(), "speedup-x")
}

func BenchmarkFig4Supercomputer(b *testing.B) {
	var res *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig4()
	}
	b.ReportMetric(float64(res.DTNRate)/1e9, "dtn-Gbps")
	b.ReportMetric(float64(res.LoginRate)/1e6, "login-Mbps")
}

func BenchmarkFig5BigData(b *testing.B) {
	var res *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig5()
	}
	b.ReportMetric(res.AggregateGbps, "aggregate-Gbps")
}

func BenchmarkFig67ColoradoFanIn(b *testing.B) {
	var res *experiments.Fig67Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig67()
	}
	b.ReportMetric(float64(res.BrokenPerHost)/1e6, "faulty-Mbps")
	b.ReportMetric(float64(res.FixedPerHost)/1e6, "fixed-Mbps")
}

func BenchmarkFig8PennState(b *testing.B) {
	var res *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig8()
	}
	b.ReportMetric(float64(res.BrokenIn)/1e6, "seqcheck-Mbps")
	b.ReportMetric(res.InFactor(), "inbound-fix-x")
	b.ReportMetric(res.OutFactor(), "outbound-fix-x")
}

func BenchmarkLineCard(b *testing.B) {
	var res *experiments.LineCardResult
	for i := 0; i < b.N; i++ {
		res = experiments.LineCard()
	}
	b.ReportMetric(res.OwampLoss*100, "owamp-loss-pct")
	b.ReportMetric(float64(res.CleanTCP)/1e9, "clean-Gbps")
	b.ReportMetric(float64(res.FaultyTCP)/1e9, "faulty-Gbps")
}

func BenchmarkNOAA(b *testing.B) {
	var res *experiments.NOAAResult
	for i := 0; i < b.N; i++ {
		res = experiments.NOAA()
	}
	b.ReportMetric(float64(res.FTPRate)/8e6, "ftp-MBps")
	b.ReportMetric(float64(res.DTNRate)/8e6, "dtn-MBps")
	b.ReportMetric(res.Speedup(), "speedup-x")
	b.ReportMetric(res.DatasetTime.Minutes(), "dataset-minutes")
}

func BenchmarkNERSC(b *testing.B) {
	var res *experiments.NERSCResult
	for i := 0; i < b.N; i++ {
		res = experiments.NERSC()
	}
	b.ReportMetric(float64(res.DTNRate)/8e6, "dtn-MBps")
	b.ReportMetric(res.Legacy33GB.Hours(), "legacy-33GB-hours")
	b.ReportMetric(res.DTN40TB.Hours()/24, "dtn-40TB-days")
}

func BenchmarkRoCE(b *testing.B) {
	var res *experiments.RoCEResult
	for i := 0; i < b.N; i++ {
		res = experiments.RoCE()
	}
	b.ReportMetric(res.CircuitGbps, "circuit-Gbps")
	b.ReportMetric(res.NoCircuitGbps, "nocircuit-Gbps")
	b.ReportMetric(res.CPUFactor, "cpu-ratio-x")
}

func BenchmarkSDNBypass(b *testing.B) {
	var res *experiments.SDNResult
	for i := 0; i < b.N; i++ {
		res = experiments.SDNBypass()
	}
	b.ReportMetric(res.FirewalledGbps, "firewalled-Gbps")
	b.ReportMetric(res.BypassGbps, "bypass-Gbps")
}

func BenchmarkAudit(b *testing.B) {
	var res *experiments.AuditResult
	for i := 0; i < b.N; i++ {
		res = experiments.AuditDesigns()
	}
	b.ReportMetric(float64(res.Rows[0].Critical), "campus-criticals")
	b.ReportMetric(float64(res.Rows[1].Critical), "retrofit-criticals")
}

// --- ablations -----------------------------------------------------------

// lossyTransfer measures a 10s unbounded flow on a 10G/9000-MTU path
// with the given RTT, loss, and sender options.
func lossyTransfer(seed int64, rtt time.Duration, p float64, opts tcp.Options) units.BitRate {
	n := netsim.New(seed)
	c := n.NewHost("c")
	s := n.NewHost("s")
	r1 := n.NewDevice("r1", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	r2 := n.NewDevice("r2", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	lk := netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond, MTU: 9000}
	n.Connect(c, r1, lk)
	wan := lk
	wan.Delay = rtt / 2
	wan.Loss = netsim.RandomLoss{P: p}
	n.Connect(r1, r2, wan)
	n.Connect(r2, s, lk)
	n.ComputeRoutes()
	srv := tcp.NewServer(s, 5001, opts)
	conn := tcp.Dial(c, srv, -1, opts, nil)
	n.RunFor(10 * time.Second)
	return conn.Stats().Throughput()
}

// BenchmarkAblationSACK quantifies SACK vs pure NewReno recovery on a
// lossy high-BDP path — the recovery mechanism every real DTN depends on.
func BenchmarkAblationSACK(b *testing.B) {
	var withSack, without units.BitRate
	for i := 0; i < b.N; i++ {
		withSack = lossyTransfer(7, 40*time.Millisecond, 1e-4, tcp.Tuned())
		off := tcp.Tuned()
		off.NoSACK = true
		without = lossyTransfer(7, 40*time.Millisecond, 1e-4, off)
	}
	b.ReportMetric(float64(withSack)/1e6, "sack-Mbps")
	b.ReportMetric(float64(without)/1e6, "newreno-Mbps")
}

// BenchmarkAblationParallelStreams quantifies GridFTP stream counts on a
// lossy WAN — why the DTN toolset uses parallel TCP.
func BenchmarkAblationParallelStreams(b *testing.B) {
	rates := map[int]units.BitRate{}
	for i := 0; i < b.N; i++ {
		for _, streams := range []int{1, 4, 8} {
			d := topo.NewSimpleDMZ(3, topo.SimpleDMZConfig{
				WAN: topo.WANConfig{Loss: netsim.RandomLoss{P: 3e-5}},
			})
			var res *dtn.Result
			dtn.GridFTP{Streams: streams}.Start(d.RemoteDTN, d.DTN, 500*units.MB, func(r *dtn.Result) { res = r })
			d.Net.RunFor(60 * time.Second)
			if res != nil {
				rates[streams] = res.Throughput()
			}
		}
	}
	b.ReportMetric(float64(rates[1])/1e9, "1stream-Gbps")
	b.ReportMetric(float64(rates[4])/1e9, "4stream-Gbps")
	b.ReportMetric(float64(rates[8])/1e9, "8stream-Gbps")
}

// BenchmarkAblationBufferDepth quantifies §5's buffer argument: the same
// fan-in workload across switch buffer sizes.
func BenchmarkAblationBufferDepth(b *testing.B) {
	rates := map[units.ByteSize]units.BitRate{}
	sizes := []units.ByteSize{512 * units.KB, 4 * units.MB, 32 * units.MB}
	for i := 0; i < b.N; i++ {
		for _, buf := range sizes {
			n := netsim.New(11)
			sw := n.NewDevice("sw", netsim.DeviceConfig{EgressBuffer: buf})
			dst := n.NewHost("dst")
			n.Connect(sw, dst, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 20 * time.Millisecond, MTU: 9000, QueueA: buf})
			srv := tcp.NewServer(dst, 5001, tcp.Tuned())
			var conns []*tcp.Conn
			for j := 0; j < 4; j++ {
				h := n.NewHost("src" + string(rune('a'+j)))
				n.Connect(h, sw, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond, MTU: 9000})
				n.ComputeRoutes()
				conns = append(conns, tcp.Dial(h, srv, -1, tcp.Tuned(), nil))
			}
			n.RunFor(8 * time.Second)
			var sum units.BitRate
			for _, conn := range conns {
				sum += conn.Stats().Throughput()
			}
			rates[buf] = sum
		}
	}
	b.ReportMetric(float64(rates[sizes[0]])/1e9, "512KB-Gbps")
	b.ReportMetric(float64(rates[sizes[1]])/1e9, "4MB-Gbps")
	b.ReportMetric(float64(rates[sizes[2]])/1e9, "32MB-Gbps")
}

// BenchmarkAblationMTU quantifies jumbo frames (9000) vs standard (1500)
// on a lossy WAN — the Mathis bound scales linearly with MSS.
func BenchmarkAblationMTU(b *testing.B) {
	rates := map[int]units.BitRate{}
	for i := 0; i < b.N; i++ {
		for _, mtu := range []int{1500, 9000} {
			d := topo.NewSimpleDMZ(5, topo.SimpleDMZConfig{
				WAN: topo.WANConfig{MTU: mtu, Loss: netsim.RandomLoss{P: 5e-5}},
			})
			var res *dtn.Result
			dtn.GridFTP{Streams: 1}.Start(d.RemoteDTN, d.DTN, 200*units.MB, func(r *dtn.Result) { res = r })
			d.Net.RunFor(60 * time.Second)
			if res != nil {
				rates[mtu] = res.Throughput()
			}
		}
	}
	b.ReportMetric(float64(rates[1500])/1e6, "mtu1500-Mbps")
	b.ReportMetric(float64(rates[9000])/1e6, "mtu9000-Mbps")
}

// BenchmarkSimulatorEventRate measures raw kernel throughput: simulated
// packet events per wall second for a saturated 10G flow.
func BenchmarkSimulatorEventRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := netsim.New(1)
		c := n.NewHost("c")
		s := n.NewHost("s")
		n.Connect(c, s, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: time.Millisecond, MTU: 9000})
		n.ComputeRoutes()
		srv := tcp.NewServer(s, 5001, tcp.Tuned())
		tcp.Dial(c, srv, -1, tcp.Tuned(), nil)
		n.RunFor(2 * time.Second)
		b.ReportMetric(float64(eventsProcessed(n)), "events/iter")
	}
}

// eventsProcessed counts the events a run executed on the network's
// control and shard schedulers.
func eventsProcessed(n *netsim.Network) uint64 {
	var total uint64
	for _, s := range n.Schedulers() {
		total += s.Processed
	}
	return total
}

// BenchmarkSweepParallel measures the sweep harness worker pool on an
// 8-point loss sweep: the same workload at 1 worker and at 8. The output
// is byte-identical either way (the determinism tests enforce it); the
// wall-clock ratio is the parallel speedup, bounded by available cores —
// see EXPERIMENTS.md for recorded numbers.
func BenchmarkSweepParallel(b *testing.B) {
	cfg := experiments.SweepConfig{
		Axis: "loss", Min: 1e-4, Max: 1e-2, Points: 8,
		RTT: 5 * time.Millisecond, Duration: time.Second,
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg.Parallel = workers
				res, err := experiments.RunSweep(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != cfg.Points {
					b.Fatalf("rows = %d", len(res.Rows))
				}
			}
		})
	}
}

// --- telemetry overhead --------------------------------------------------

// telemetryWorkload is the BenchmarkSimulatorEventRate scenario with an
// optional telemetry instance attached, shared by the overhead pair.
func telemetryWorkload(b *testing.B, tele *telemetry.Telemetry) {
	for i := 0; i < b.N; i++ {
		n := netsim.New(1)
		if tele != nil {
			n.AttachTelemetry(tele)
		}
		c := n.NewHost("c")
		s := n.NewHost("s")
		n.Connect(c, s, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: time.Millisecond, MTU: 9000})
		n.ComputeRoutes()
		srv := tcp.NewServer(s, 5001, tcp.Tuned())
		tcp.Dial(c, srv, -1, tcp.Tuned(), nil)
		n.RunFor(2 * time.Second)
		b.ReportMetric(float64(eventsProcessed(n)), "events/iter")
	}
}

// BenchmarkTelemetryDisabled runs the event-rate workload with no
// telemetry attached: the instrumentation must compile down to nil-bus
// checks, so this should stay within ~2% of the pre-telemetry
// BenchmarkSimulatorEventRate baseline (see EXPERIMENTS.md).
func BenchmarkTelemetryDisabled(b *testing.B) {
	telemetryWorkload(b, nil)
}

// BenchmarkTelemetryEnabled runs the same workload with full tracing: a
// bus subscriber counting every packet event plus a 100 ms metrics
// sampler. The gap to BenchmarkTelemetryDisabled is the price of turning
// tracing on.
func BenchmarkTelemetryEnabled(b *testing.B) {
	tele := telemetry.New()
	tele.SampleInterval = 100 * time.Millisecond
	var events int
	tele.Bus.Subscribe(func(*telemetry.Event) { events++ })
	telemetryWorkload(b, tele)
	b.ReportMetric(float64(events)/float64(b.N), "trace-events/iter")
}
