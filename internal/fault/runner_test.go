package fault

import (
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/netsim"
)

// TestMonitorDetectsViaContinuousOWAMP is the always-probing deployment
// of §3.3: continuous OWAMP catches a soft failure within a bucket or
// two, localizes it, and watches it recover.
func TestMonitorDetectsViaContinuousOWAMP(t *testing.T) {
	sc := &Scenario{
		Name:     "owamp-loop",
		Topology: Topology{Kind: "star", Sites: 3, RateMbps: 100},
		Duration: Dur(50 * time.Second),
		Monitor: Measurement{
			OwampInterval: Dur(50 * time.Millisecond),
		},
		Faults: []FaultSpec{{
			Type: KindSoftFailure, Link: "site2<->backbone",
			Onset: Dur(10 * time.Second), Duration: Dur(20 * time.Second),
			Loss: &LossSpec{Model: LossRandom, P: 0.05},
		}},
	}
	rep, err := Execute(runCtx(t).Adopt("net", netsim.New(42)), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Verdicts[0]
	if !v.Detected {
		t.Fatalf("soft failure not detected; episodes: %d", len(rep.Episodes))
	}
	if v.MTTD <= 0 || v.MTTD > 15*time.Second {
		t.Fatalf("MTTD = %v, want within ~2 archive buckets", v.MTTD)
	}
	if !v.Localized || v.TopSuspect != "backbone<->site2" {
		t.Fatalf("localization: localized=%v top=%q", v.Localized, v.TopSuspect)
	}
	if !v.Recovered || v.MTTR <= 0 || v.MTTR > 25*time.Second {
		t.Fatalf("recovery: recovered=%v MTTR=%v", v.Recovered, v.MTTR)
	}
	if len(rep.Episodes) == 0 || rep.Episodes[0].TriggerKind != "loss" {
		t.Fatalf("expected a loss-triggered episode, got %+v", rep.Episodes)
	}
}

// TestClosedLoopBWCTLDetectProbeLocalize exercises the full closed
// loop: scheduled BWCTL tests detect a throughput collapse against the
// learned baseline, the monitor launches OWAMP probing on demand,
// localization names the injected link, and the episode closes after
// the fault clears.
func TestClosedLoopBWCTLDetectProbeLocalize(t *testing.T) {
	sc := closedLoopScenario()
	rep, err := Execute(runCtx(t).Adopt("net", netsim.New(7)), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Verdicts[0]
	if !v.Detected {
		t.Fatalf("fault not detected; episodes: %d", len(rep.Episodes))
	}
	if len(rep.Episodes) == 0 || rep.Episodes[0].TriggerKind != "throughput" {
		t.Fatalf("detection should come from the BWCTL baseline, got %+v", rep.Episodes)
	}
	// Onset 6.5s; the first test that can see it runs at 9..10s.
	if v.MTTD <= 0 || v.MTTD > 5*time.Second {
		t.Fatalf("MTTD = %v, want under one-and-a-bit test periods", v.MTTD)
	}
	if !v.Localized || v.TopSuspect != "backbone<->site2" {
		t.Fatalf("localization: localized=%v top=%q suspects=%v", v.Localized, v.TopSuspect, rep.Episodes[0].Suspects)
	}
	if !v.Recovered || v.MTTR <= 0 || v.MTTR > 20*time.Second {
		t.Fatalf("recovery: recovered=%v MTTR=%v", v.Recovered, v.MTTR)
	}
}

func closedLoopScenario() *Scenario {
	return &Scenario{
		Name:     "closed-loop",
		Topology: Topology{Kind: "star", Sites: 3, RateMbps: 100},
		Duration: Dur(45 * time.Second),
		Monitor: Measurement{
			BWCTLPeriod:   Dur(4 * time.Second),
			BWCTLDuration: Dur(time.Second),
			ProbeInterval: Dur(5 * time.Millisecond),
			ProbeWindow:   Dur(5 * time.Second),
		},
		Faults: []FaultSpec{{
			Type: KindSoftFailure, Link: "site2<->backbone",
			Onset: Dur(6500 * time.Millisecond), Duration: Dur(12 * time.Second),
			Loss: &LossSpec{Model: LossRandom, P: 0.02},
		}},
	}
}

// TestMonitorOutageDetected: a dead measurement host archives as 100%
// loss (blackout accounting), which the monitor must flag.
func TestMonitorOutageDetected(t *testing.T) {
	sc := &Scenario{
		Name:     "outage",
		Topology: Topology{Kind: "star", Sites: 3, RateMbps: 100},
		Duration: Dur(55 * time.Second),
		Monitor: Measurement{
			OwampInterval: Dur(50 * time.Millisecond),
		},
		Faults: []FaultSpec{{
			Type: KindMonitorOutage, Node: "site3",
			Onset: Dur(10 * time.Second), Duration: Dur(15 * time.Second),
		}},
	}
	rep, err := Execute(runCtx(t).Adopt("net", netsim.New(3)), sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Verdicts[0]
	if !v.Detected || v.MTTD > 15*time.Second {
		t.Fatalf("outage not detected in time: %+v", v)
	}
	if !v.Recovered {
		t.Fatalf("outage recovery not observed: %+v", v)
	}
	if v.Localized {
		t.Fatal("node faults have no single guilty link; Localized must stay false")
	}
}

// TestCampaignMTTDMonotoneAndParallelInvariant is the §2.1 claim in
// miniature: a faster test cadence detects the same fault sooner, and
// the campaign is byte-identical at any parallelism.
func TestCampaignMTTDMonotoneAndParallelInvariant(t *testing.T) {
	cfg := CampaignConfig{
		Base:    closedLoopScenario(),
		Periods: []time.Duration{4 * time.Second, 2 * time.Second},
	}
	seq, err := RunCampaign(&harness.Ctx{Parallel: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCampaign(&harness.Ctx{Parallel: 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Render() != par.Render() {
		t.Fatalf("campaign differs between -parallel 1 and 8:\n%s\n%s", seq.Render(), par.Render())
	}
	for _, row := range seq.Rows {
		if !row.Verdict.Detected {
			t.Fatalf("period %v: fault not detected", row.Period)
		}
	}
	if !(seq.Rows[1].Verdict.MTTD < seq.Rows[0].Verdict.MTTD) {
		t.Fatalf("MTTD must shrink with cadence: period %v -> %v, period %v -> %v",
			seq.Rows[0].Period, seq.Rows[0].Verdict.MTTD,
			seq.Rows[1].Period, seq.Rows[1].Verdict.MTTD)
	}
}
