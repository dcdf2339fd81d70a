package experiments

import (
	"time"

	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/units"
)

// SawtoothResult captures §2.1's dynamics paragraph as a figure: "TCP
// interprets the loss as network congestion and reacts by rapidly
// reducing the overall sending rate. The sending rate then slowly
// recovers due to the dynamic behavior of the control algorithms."
type SawtoothResult struct {
	RTT       time.Duration
	LossEvery time.Duration
	Cwnd      *tcp.Series // congestion window over time
	Rate      *tcp.Series // goodput over time
	Backoffs  int
}

// Sawtooth runs a single tuned flow on a clean 10G WAN path with a
// deterministic loss injected every LossEvery, tracing cwnd and rate.
// The trace starts after the flow has descended from its slow-start
// overshoot into the loss-limited regime, where the classic halve-then-
// linear-regrow oscillation is visible.
func Sawtooth(ctx *harness.Ctx, rtt time.Duration, lossEvery time.Duration, dur time.Duration) *SawtoothResult {
	n, c, s := fig1Path(ctx, "sawtooth", 13, rtt, nil)
	srv := tcp.NewServer(s, 5001, tcp.Tuned())
	conn := tcp.Dial(c, srv, -1, tcp.Tuned(), nil)

	res := &SawtoothResult{RTT: rtt, LossEvery: lossEvery}

	// Inject one data-packet loss per period at the first router.
	dropNext := false
	r1 := n.Node("r1").(*netsim.Device)
	r1.AddFilter(oneShotDropper{armed: &dropNext})
	n.Sched.Every(lossEvery, func() { dropNext = true; res.Backoffs++ })

	// Warm up through the overshoot descent, then trace.
	n.RunFor(dur)
	res.Cwnd = conn.TraceCwnd(dur / 200)
	res.Rate = conn.TraceThroughput(dur / 200)
	n.RunFor(dur)
	return res
}

type oneShotDropper struct {
	armed *bool
}

// FilterName implements netsim.Filter.
func (oneShotDropper) FilterName() string { return "sawtooth-loss" }

// Check implements netsim.Filter.
func (d oneShotDropper) Check(p *netsim.Packet, _ *netsim.Port) bool {
	if *d.armed && p.IsTCPData(tcp.HeaderSize) {
		*d.armed = false
		return false
	}
	return true
}

// Render draws the sawtooth: the cwnd collapse on each loss and the slow
// linear recovery between losses.
func (r *SawtoothResult) Render() string {
	cx := make([]float64, r.Cwnd.Len())
	cy := make([]float64, r.Cwnd.Len())
	for i := range r.Cwnd.Times {
		cx[i] = r.Cwnd.Times[i].Seconds()
		cy[i] = r.Cwnd.Values[i] / float64(units.MB)
	}
	return stats.Chart(stats.ChartConfig{
		Title:  "§2.1 dynamics: cwnd sawtooth under periodic loss (" + r.RTT.String() + " RTT)",
		XLabel: "time (s)", YLabel: "cwnd (MB)",
	}, stats.XY{Label: "cwnd", X: cx, Y: cy})
}
