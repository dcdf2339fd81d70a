package fault

import (
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
)

// CampaignConfig sweeps one fault scenario across fault severity and
// measurement cadence — the quantitative form of the paper's §2.1
// claim that detection time is a function of how often you test.
type CampaignConfig struct {
	// Base is the scenario template. Its first fault carrying a
	// severity (a loss spec or a degrading-optic peak) is the one the
	// Severities axis rewrites.
	Base *Scenario

	// Periods are the BWCTL test periods to sweep (required).
	Periods []time.Duration

	// Severities are loss severities to sweep: the drop probability
	// for random/gilbert/degrading faults, or 1/N for periodic loss.
	// Empty keeps the base scenario's severity (a single row set).
	Severities []float64
}

// CampaignRow is one (severity, period) cell's verdict for the
// scenario's first fault.
type CampaignRow struct {
	Severity float64 // 0 = base scenario's own severity
	Period   time.Duration
	Verdict  Verdict
}

// CampaignResult collects campaign rows in sweep order.
type CampaignResult struct {
	Name string
	Rows []CampaignRow
}

type campaignPoint struct {
	sev    float64
	period time.Duration
}

func (p campaignPoint) Key() string {
	return fmt.Sprintf("sev=%g/period=%s", p.sev, p.period)
}

// RunCampaign executes the sweep on the parallel harness. Every point
// runs on an isolated network with seeds derived from the point's
// identity, so results are byte-identical at any ctx.Parallel worker
// count.
func RunCampaign(ctx *harness.Ctx, cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("fault campaign: a base scenario is required")
	}
	if err := cfg.Base.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Periods) == 0 {
		return nil, fmt.Errorf("fault campaign: at least one BWCTL period is required")
	}
	sevs := cfg.Severities
	if len(sevs) == 0 {
		sevs = []float64{0}
	}
	var points []campaignPoint
	for _, sev := range sevs {
		for _, period := range cfg.Periods {
			points = append(points, campaignPoint{sev: sev, period: period})
		}
	}

	res := harness.Sweep(ctx, "fault/"+cfg.Base.Name+"/mttd", points, func(ctx *harness.Ctx, p campaignPoint) (Verdict, error) {
		sc := cfg.Base.Clone()
		sc.Monitor.BWCTLPeriod = Dur(p.period)
		if err := applySeverity(sc, p.sev); err != nil {
			return Verdict{}, err
		}
		rep, err := Execute(ctx.NewNetwork("net"), sc, ctx.Seed)
		if err != nil {
			return Verdict{}, err
		}
		return rep.Verdicts[0], nil
	})
	if err := res.Err(); err != nil {
		return nil, err
	}

	out := &CampaignResult{Name: cfg.Base.Name}
	for i, v := range res.Values() {
		out.Rows = append(out.Rows, CampaignRow{
			Severity: points[i].sev,
			Period:   points[i].period,
			Verdict:  v,
		})
	}
	return out, nil
}

// applySeverity rewrites the first severity-carrying fault in place.
// Severity 0 keeps the scenario as written.
func applySeverity(sc *Scenario, sev float64) error {
	if sev == 0 {
		return nil
	}
	for i := range sc.Faults {
		f := &sc.Faults[i]
		switch {
		case f.Loss != nil:
			switch f.Loss.Model {
			case LossRandom:
				f.Loss.P = sev
			case LossPeriodic:
				f.Loss.N = int(1/sev + 0.5)
			case LossGilbert:
				f.Loss.PBad = sev
			}
			return nil
		case f.Type == KindDegradingOptic:
			f.Peak = sev
			return nil
		}
	}
	return fmt.Errorf("fault campaign: scenario %s has no severity-carrying fault", sc.Name)
}

// Render produces the campaign table: MTTD (and the rest of the
// verdict) per severity × test period.
func (r *CampaignResult) Render() string {
	tb := stats.NewTable(
		fmt.Sprintf("Fault campaign %q: detection time vs test cadence", r.Name),
		"severity", "test period", "MTTD", "MTTR", "localized")
	for _, row := range r.Rows {
		sev := "(scenario)"
		if row.Severity > 0 {
			sev = fmt.Sprintf("%g", row.Severity)
		}
		mttd, mttr := "not detected", "-"
		if row.Verdict.Detected {
			mttd = row.Verdict.MTTD.Round(100 * time.Millisecond).String()
		}
		if row.Verdict.Recovered {
			mttr = row.Verdict.MTTR.Round(100 * time.Millisecond).String()
		}
		loc := "-"
		if row.Verdict.TopSuspect != "" {
			loc = fmt.Sprintf("%v (%s)", row.Verdict.Localized, row.Verdict.TopSuspect)
		}
		tb.Add(sev, row.Period.String(), mttd, mttr, loc)
	}
	return tb.String()
}
