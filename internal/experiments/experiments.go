// Package experiments regenerates every figure and quantitative claim in
// the paper's evaluation, one function per artifact (see DESIGN.md §3
// for the index). Each experiment builds its topology from internal/topo,
// drives simulated workloads, and returns a result struct with a Render
// method producing the table/series the paper reports.
//
// Seeds are fixed: every experiment is deterministic and reproducible.
// Each takes the run context (harness.Ctx) and adopts every network it
// builds, so the caller's shard count and telemetry plane reach them
// and the caller's Audit covers them.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/analytic"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// fig1Path builds the Figure 1 measurement path: 10G hosts, jumbo
// frames, adjustable RTT and loss, deep-buffered routers.
func fig1Path(ctx *harness.Ctx, label string, seed int64, rtt time.Duration, loss netsim.LossModel) (*netsim.Network, *netsim.Host, *netsim.Host) {
	n := ctx.Adopt(label, netsim.New(seed))
	c, s := fig1PathOn(n, rtt, loss)
	return n, c, s
}

// fig1PathOn builds the same path on a caller-provided network, so
// harness-driven runs can use per-point isolated networks with derived
// seeds.
func fig1PathOn(n *netsim.Network, rtt time.Duration, loss netsim.LossModel) (*netsim.Host, *netsim.Host) {
	c := n.NewHost("sender")
	s := n.NewHost("receiver")
	r1 := n.NewDevice("r1", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	r2 := n.NewDevice("r2", netsim.DeviceConfig{EgressBuffer: 64 * units.MB})
	cfg := netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond, MTU: 9000}
	n.Connect(c, r1, cfg)
	wan := cfg
	wan.Delay = rtt / 2
	wan.Loss = loss
	n.Connect(r1, r2, wan)
	n.Connect(r2, s, cfg)
	n.ComputeRoutes()
	return c, s
}

// Fig1Point is one RTT sample of Figure 1.
type Fig1Point struct {
	RTT      time.Duration
	LossFree units.BitRate // measured, zero loss
	Mathis   units.BitRate // predicted at the loss rate, capped by path
	Reno     units.BitRate // measured TCP-Reno at the loss rate
	HTCP     units.BitRate // measured TCP-Hamilton at the loss rate
}

// Fig1Result is the full Figure 1 dataset.
type Fig1Result struct {
	LossRate float64
	MSS      units.ByteSize
	Points   []Fig1Point
}

// Fig1Config adjusts the Figure 1 sweep.
type Fig1Config struct {
	// RTTs to sample; empty uses the paper's axis (up to ~100 ms).
	RTTs []time.Duration
	// LossRate is the packet loss probability; zero uses the §2.1
	// failing line card: 1/22,000.
	LossRate float64
	// Duration is simulated measurement time per point; zero means 8 s.
	Duration time.Duration
}

// rttPoint is one Figure 1 sweep point.
type rttPoint struct{ rtt time.Duration }

func (p rttPoint) Key() string { return "rtt=" + p.rtt.String() }

// Fig1 reproduces Figure 1: TCP throughput vs RTT with packet loss,
// comparing the loss-free path, the Mathis prediction, and measured
// Reno and H-TCP. RTT points run in parallel on the sweep harness
// (ctx.Parallel workers; the result is byte-identical at any count);
// every simulation is audited for conservation/accounting invariants,
// and a violation panics — it means the simulator itself is broken, so
// no figure derived from it can be trusted.
func Fig1(ctx *harness.Ctx, cfg Fig1Config) *Fig1Result {
	if len(cfg.RTTs) == 0 {
		cfg.RTTs = []time.Duration{
			1 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond,
			20 * time.Millisecond, 50 * time.Millisecond, 90 * time.Millisecond,
		}
	}
	if cfg.LossRate == 0 {
		cfg.LossRate = 1.0 / 22000
	}
	if cfg.Duration == 0 {
		cfg.Duration = 8 * time.Second
	}
	mss := units.ByteSize(9000 - 40)
	res := &Fig1Result{LossRate: cfg.LossRate, MSS: mss}

	measure := func(ctx *harness.Ctx, stream string, rtt time.Duration, lossy bool, cc tcp.CongestionControl) units.BitRate {
		var loss netsim.LossModel
		dur := cfg.Duration
		warm := dur / 4
		if lossy {
			loss = netsim.RandomLoss{P: cfg.LossRate}
			// Converging to the loss-limited steady state takes many
			// loss epochs, and epochs stretch with RTT: the descent
			// from the slow-start overshoot alone spans several
			// seconds at WAN RTTs. Scale the window accordingly.
			if scaled := 250 * rtt; scaled > dur {
				dur = scaled
			}
			warm = dur / 2
		}
		n := ctx.NewNetwork(stream)
		c, s := fig1PathOn(n, rtt, loss)
		srv := tcp.NewServer(s, 5001, tcp.Tuned())
		conn := tcp.Dial(c, srv, -1, tcp.TunedWith(cc), nil)
		n.RunFor(warm)
		base := conn.Stats().BytesAcked
		n.RunFor(dur)
		acked := conn.Stats().BytesAcked - base
		return units.Rate(acked, dur)
	}

	points := make([]rttPoint, len(cfg.RTTs))
	for i, rtt := range cfg.RTTs {
		points[i] = rttPoint{rtt}
	}
	r := harness.Sweep(ctx, "experiments/fig1/throughput-vs-rtt", points, func(ctx *harness.Ctx, p rttPoint) (Fig1Point, error) {
		return Fig1Point{
			RTT:      p.rtt,
			LossFree: measure(ctx, "lossfree", p.rtt, false, tcp.NewReno{}),
			Mathis:   analytic.EffectiveMathisRate(10*units.Gbps, mss, p.rtt, cfg.LossRate),
			Reno:     measure(ctx, "reno", p.rtt, true, tcp.NewReno{}),
			HTCP:     measure(ctx, "htcp", p.rtt, true, &tcp.HTCP{}),
		}, nil
	})
	if err := r.Err(); err != nil {
		panic("experiments: " + err.Error())
	}
	res.Points = r.Values()
	return res
}

// Render produces the Figure 1 table and an ASCII chart.
func (r *Fig1Result) Render() string {
	tb := stats.NewTable(
		fmt.Sprintf("Figure 1: TCP throughput vs RTT (loss %.4f%%, MSS %v)", r.LossRate*100, r.MSS),
		"rtt", "loss-free", "mathis-bound", "reno", "htcp")
	var xs, lf, ma, re, ht []float64
	for _, p := range r.Points {
		tb.Add(p.RTT.String(), p.LossFree.String(), p.Mathis.String(), p.Reno.String(), p.HTCP.String())
		xs = append(xs, p.RTT.Seconds()*1000)
		lf = append(lf, float64(p.LossFree)/1e9)
		ma = append(ma, float64(p.Mathis)/1e9)
		re = append(re, float64(p.Reno)/1e9)
		ht = append(ht, float64(p.HTCP)/1e9)
	}
	chart := stats.Chart(stats.ChartConfig{
		Title:  "Figure 1 (shape): throughput vs RTT under loss",
		XLabel: "RTT (ms)", YLabel: "Gbps", LogY: true,
	},
		stats.XY{Label: "loss-free", X: xs, Y: lf},
		stats.XY{Label: "mathis", X: xs, Y: ma},
		stats.XY{Label: "reno", X: xs, Y: re},
		stats.XY{Label: "htcp", X: xs, Y: ht},
	)
	return tb.String() + "\n" + chart
}

// LineCardResult reproduces the §2.1 failing-line-card narrative.
type LineCardResult struct {
	WireDrops     uint64        // ground truth: packets the card corrupted
	SNMPDrops     uint64        // what device counters reported (zero!)
	OwampLoss     float64       // what active measurement saw
	DeviceLoss    float64       // configured loss rate
	CleanTCP      units.BitRate // TCP on the same path without the fault
	FaultyTCP     units.BitRate // TCP through the failing card
	RTT           time.Duration
	MathisAtFault units.BitRate
}

// LineCard reproduces §2.1: a router line card dropping 1 of every
// 22,000 packets is invisible to SNMP error counters, detected by OWAMP,
// and collapses end-to-end TCP at WAN RTT.
func LineCard(ctx *harness.Ctx) *LineCardResult {
	const rtt = 50 * time.Millisecond
	res := &LineCardResult{RTT: rtt, DeviceLoss: 1.0 / 22000}

	run := func(faulty bool) units.BitRate {
		var loss netsim.LossModel
		if faulty {
			loss = &netsim.PeriodicLoss{N: 22000}
		}
		n, c, s := fig1Path(ctx, fmt.Sprintf("faulty=%v", faulty), 7, rtt, loss)
		srv := tcp.NewServer(s, 5001, tcp.Tuned())
		conn := tcp.Dial(c, srv, -1, tcp.Tuned(), nil)
		n.RunFor(12 * time.Second)
		if faulty {
			// Tally what the devices saw.
			for _, l := range n.Links() {
				res.WireDrops += l.WireDrops()
				for _, p := range []*netsim.Port{l.A, l.B} {
					res.SNMPDrops += p.Counters.QueueDrops
				}
			}
		}
		return conn.Stats().Throughput()
	}
	res.CleanTCP = run(false)
	res.FaultyTCP = run(true)
	res.MathisAtFault = analytic.EffectiveMathisRate(10*units.Gbps, 8960, rtt, res.DeviceLoss)

	// OWAMP sees the loss directly: probes through the same wire.
	n, c, s := fig1Path(ctx, "owamp", 9, rtt, &netsim.PeriodicLoss{N: 2200}) // accelerated x10 for probe-rate statistics
	lossSeen := owampLoss(n, c, s, time.Millisecond, 60*time.Second)
	res.OwampLoss = lossSeen / 10 // de-accelerate
	return res
}

// owampLoss measures one-way loss with probe packets at the given
// interval over the given duration.
func owampLoss(n *netsim.Network, from, to *netsim.Host, interval, dur time.Duration) float64 {
	var sent, got int
	to.Bind(netsim.ProtoUDP, 861, netsim.HandlerFunc(func(*netsim.Packet) { got++ }))
	n.Sched.Every(interval, func() {
		sent++
		from.Send(&netsim.Packet{
			Flow: netsim.FlowKey{Src: from.Name(), Dst: to.Name(), SrcPort: 861, DstPort: 861, Proto: netsim.ProtoUDP},
			Size: 64,
		})
	})
	n.RunFor(dur + time.Second)
	if sent == 0 {
		return 0
	}
	return 1 - float64(got)/float64(sent)
}

// Render produces the §2.1 table.
func (r *LineCardResult) Render() string {
	tb := stats.NewTable("§2.1: failing line card (1/22,000 loss) at "+r.RTT.String()+" RTT",
		"metric", "value")
	tb.Add("wire drops (ground truth)", fmt.Sprint(r.WireDrops))
	tb.Add("SNMP-visible error counters", fmt.Sprint(r.SNMPDrops))
	tb.Add("OWAMP measured loss", fmt.Sprintf("%.4f%% (actual %.4f%%)", r.OwampLoss*100, r.DeviceLoss*100))
	tb.Add("TCP on clean path", r.CleanTCP.String())
	tb.Add("TCP through failing card", r.FaultyTCP.String())
	tb.Add("Mathis bound at fault", r.MathisAtFault.String())
	tb.Add("TCP collapse factor", fmt.Sprintf("%.0fx", float64(r.CleanTCP)/float64(r.FaultyTCP)))
	return tb.String()
}

// Fig8Result reproduces §6.2 / Figure 8: the Penn State firewall's
// sequence checking capping windows at 64 KB.
type Fig8Result struct {
	RTT            time.Duration
	RequiredWindow units.ByteSize // Equation 2
	WindowCap      units.BitRate  // 64 KiB / RTT
	BrokenIn       units.BitRate  // inbound (VTTI->colo) with seq checking
	FixedIn        units.BitRate
	BrokenOut      units.BitRate // outbound (colo->VTTI)
	FixedOut       units.BitRate
}

// Fig8 measures the Penn State pathology in both directions, before and
// after disabling the firewall feature.
func Fig8(ctx *harness.Ctx) *Fig8Result {
	res := &Fig8Result{
		RTT:            10 * time.Millisecond,
		RequiredWindow: analytic.RequiredWindow(units.Gbps, 10*time.Millisecond),
		WindowCap:      analytic.WindowLimitedRate(64*units.KiB, 10*time.Millisecond),
	}
	run := func(seqCheck, inbound bool) units.BitRate {
		p := topo.NewPennState(1, topo.PennStateConfig{SequenceChecking: seqCheck})
		ctx.Adopt("pennstate", p.Net)
		src, dst := p.VTTIHost, p.Colo
		if !inbound {
			src, dst = dst, src
		}
		var st *tcp.Stats
		srv := tcp.NewServer(dst.Host, 5001, dst.Tuning)
		tcp.Dial(src.Host, srv, 40*units.MB, src.Tuning, func(s *tcp.Stats) { st = s })
		p.Net.RunFor(2 * time.Minute)
		if st == nil {
			return 0
		}
		return st.Throughput()
	}
	res.BrokenIn = run(true, true)
	res.FixedIn = run(false, true)
	res.BrokenOut = run(true, false)
	res.FixedOut = run(false, false)
	return res
}

// InFactor returns the inbound improvement from the fix (paper: ~5x).
func (r *Fig8Result) InFactor() float64 { return float64(r.FixedIn) / float64(r.BrokenIn) }

// OutFactor returns the outbound improvement (paper: ~12x).
func (r *Fig8Result) OutFactor() float64 { return float64(r.FixedOut) / float64(r.BrokenOut) }

// Render produces the §6.2 table.
func (r *Fig8Result) Render() string {
	tb := stats.NewTable("§6.2 / Figure 8: Penn State firewall sequence checking",
		"metric", "value")
	tb.Add("RTT", r.RTT.String())
	tb.Add("required window (Eq 2)", r.RequiredWindow.String())
	tb.Add("64 KiB window cap", r.WindowCap.String())
	tb.Add("inbound, seq checking on", r.BrokenIn.String())
	tb.Add("inbound, seq checking off", r.FixedIn.String())
	tb.Add("inbound improvement", fmt.Sprintf("%.1fx (paper: ~5x)", r.InFactor()))
	tb.Add("outbound, seq checking on", r.BrokenOut.String())
	tb.Add("outbound, seq checking off", r.FixedOut.String())
	tb.Add("outbound improvement", fmt.Sprintf("%.1fx (paper: ~12x)", r.OutFactor()))
	return tb.String()
}
