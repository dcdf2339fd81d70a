package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/analytic"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/units"
)

// SweepConfig configures a one-dimensional parameter sweep of the
// paper's measurement path (10G, jumbo frames, deep buffers), executed
// on the harness worker pool.
type SweepConfig struct {
	// Axis selects the swept parameter: "loss" (packet loss probability)
	// or "rtt" (round-trip time).
	Axis string

	// Min and Max bound the sweep, inclusive, in axis units: probability
	// for loss, seconds for rtt. Points are log-spaced between them.
	Min, Max float64

	// Points is the number of sweep points; zero means 5.
	Points int

	// RTT fixes the path RTT for loss sweeps; zero means 50 ms.
	RTT time.Duration

	// Loss fixes the loss probability for rtt sweeps; zero means the
	// paper's failing line card, 1/22,000.
	Loss float64

	// Duration is simulated measurement time per point; zero means 4 s.
	Duration time.Duration
}

// SweepRow is one sweep point's outcome.
type SweepRow struct {
	Label    string
	Loss     float64
	RTT      time.Duration
	Measured units.BitRate // tuned TCP on the simulated path
	Mathis   units.BitRate // analytic bound at the same point
}

// SweepResult is a full sweep, renderable as a table.
type SweepResult struct {
	Axis       string
	Rows       []SweepRow
	Violations []string // simulation invariant violations; always empty in a correct build
}

// sweepPoint carries one (loss, rtt) combination through the harness.
type sweepPoint struct {
	label string
	loss  float64
	rtt   time.Duration
}

func (p sweepPoint) Key() string { return p.label }

// RunSweep executes the configured sweep deterministically: results are
// byte-identical at any ctx.Parallel worker count, and every simulation
// is audited for packet conservation, queue accounting, drop
// bookkeeping agreement, and clock sanity.
func RunSweep(ctx *harness.Ctx, cfg SweepConfig) (*SweepResult, error) {
	if cfg.Axis == "" {
		cfg.Axis = "loss"
	}
	if cfg.Axis != "loss" && cfg.Axis != "rtt" {
		return nil, fmt.Errorf("sweep: unknown axis %q (want loss or rtt)", cfg.Axis)
	}
	if cfg.Points == 0 {
		cfg.Points = 5
	}
	if cfg.Points < 1 || cfg.Min <= 0 || cfg.Max < cfg.Min {
		return nil, fmt.Errorf("sweep: need 0 < min <= max and points >= 1, got [%g, %g] x%d", cfg.Min, cfg.Max, cfg.Points)
	}
	if cfg.RTT == 0 {
		cfg.RTT = 50 * time.Millisecond
	}
	if cfg.Loss == 0 {
		cfg.Loss = 1.0 / 22000
	}
	if cfg.Duration == 0 {
		cfg.Duration = 4 * time.Second
	}

	points := make([]sweepPoint, cfg.Points)
	for i := range points {
		v := logSpaced(cfg.Min, cfg.Max, i, cfg.Points)
		switch cfg.Axis {
		case "loss":
			points[i] = sweepPoint{label: fmt.Sprintf("loss=%.2e", v), loss: v, rtt: cfg.RTT}
		case "rtt":
			rtt := time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond)
			points[i] = sweepPoint{label: "rtt=" + rtt.String(), loss: cfg.Loss, rtt: rtt}
		}
	}

	res := harness.Sweep(ctx, "experiments/sweep-"+cfg.Axis+"/"+cfg.Axis, points, func(ctx *harness.Ctx, p sweepPoint) (SweepRow, error) {
		n := ctx.NewNetwork("path")
		c, s := fig1PathOn(n, p.rtt, netsim.RandomLoss{P: p.loss})
		srv := tcp.NewServer(s, 5001, tcp.Tuned())
		conn := tcp.Dial(c, srv, -1, tcp.Tuned(), nil)
		dur := measureWindow(cfg.Duration, p.rtt)
		n.RunFor(dur / 2) // warm-up: slow-start overshoot and descent
		base := conn.Stats().BytesAcked
		n.RunFor(dur)
		return SweepRow{
			Label:    p.label,
			Loss:     p.loss,
			RTT:      p.rtt,
			Measured: units.Rate(conn.Stats().BytesAcked-base, dur),
			Mathis:   analytic.EffectiveMathisRate(10*units.Gbps, 9000-40, p.rtt, p.loss),
		}, nil
	})

	out := &SweepResult{Axis: cfg.Axis, Rows: res.Values()}
	for _, v := range res.Violations() {
		out.Violations = append(out.Violations, v.String())
	}
	return out, res.Err()
}

// logSpaced returns the i-th of n log-spaced values in [min, max].
func logSpaced(min, max float64, i, n int) float64 {
	if n == 1 {
		return min
	}
	return min * math.Exp(float64(i)/float64(n-1)*math.Log(max/min))
}

// measureWindow stretches the measurement window at high RTT the same
// way Fig1 does: converging to the loss-limited steady state takes many
// loss epochs, and epochs stretch with RTT.
func measureWindow(base time.Duration, rtt time.Duration) time.Duration {
	if scaled := 250 * rtt; scaled > base {
		return scaled
	}
	return base
}

// Render produces the sweep table.
func (r *SweepResult) Render() string {
	tb := stats.NewTable("Parameter sweep ("+r.Axis+" axis): tuned TCP vs Mathis bound",
		"point", "loss", "rtt", "measured", "mathis-bound")
	for _, row := range r.Rows {
		tb.Add(row.Label, fmt.Sprintf("%.2e", row.Loss), row.RTT.String(),
			row.Measured.String(), row.Mathis.String())
	}
	out := tb.String()
	for _, v := range r.Violations {
		out += "\nINVARIANT VIOLATION: " + v
	}
	return out
}
