package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// skipIfShort gates multi-second simulations out of -short runs (the
// race-detector CI sweep); the plain CI job still runs everything.
func skipIfShort(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation; skipped in -short")
	}
}

// runCtx returns a run context whose networks are audited when the test
// ends.
func runCtx(t *testing.T) *harness.Ctx {
	ctx := &harness.Ctx{}
	t.Cleanup(func() {
		if err := ctx.Audit(); err != nil {
			t.Error(err)
		}
	})
	return ctx
}

// quickFig1 keeps unit-test cost low; the benchmark harness runs the
// full default sweep.
func quickFig1(t *testing.T) *Fig1Result {
	return Fig1(runCtx(t), Fig1Config{
		RTTs:     []time.Duration{2 * time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond},
		Duration: 3 * time.Second,
	})
}

func TestFig1Shape(t *testing.T) {
	skipIfShort(t)
	r := quickFig1(t)
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for i, p := range r.Points {
		// Loss-free beats lossy at every RTT.
		if p.LossFree <= p.Reno {
			t.Errorf("point %d: loss-free %v <= reno %v", i, p.LossFree, p.Reno)
		}
		// H-TCP at or above Reno (within noise at short RTT).
		if float64(p.HTCP) < 0.7*float64(p.Reno) {
			t.Errorf("point %d: htcp %v far below reno %v", i, p.HTCP, p.Reno)
		}
	}
	// The gap grows with RTT: at 80ms the loss-free/reno ratio must be
	// much larger than at 2ms.
	shortGap := float64(r.Points[0].LossFree) / float64(r.Points[0].Reno)
	longGap := float64(r.Points[2].LossFree) / float64(r.Points[2].Reno)
	if longGap < 3*shortGap {
		t.Errorf("gap at 80ms (%.1fx) should dwarf gap at 2ms (%.1fx)", longGap, shortGap)
	}
	// Measured lossy rates land within a factor ~3 of Mathis.
	for i, p := range r.Points {
		if p.Mathis <= 0 {
			continue
		}
		ratio := float64(p.Reno) / float64(p.Mathis)
		if ratio > 3 || ratio < 0.1 {
			t.Errorf("point %d: reno/mathis = %.2f, implausible", i, ratio)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "htcp") {
		t.Error("render missing content")
	}
	checkGolden(t, "fig1_quick.txt", out)
}

func TestLineCardStory(t *testing.T) {
	skipIfShort(t)
	r := LineCard(runCtx(t))
	if r.WireDrops == 0 {
		t.Error("no wire drops recorded")
	}
	if r.SNMPDrops != 0 {
		t.Errorf("SNMP drops = %d; the §2.1 point is that counters stay silent", r.SNMPDrops)
	}
	if r.OwampLoss < r.DeviceLoss/3 || r.OwampLoss > r.DeviceLoss*3 {
		t.Errorf("owamp loss %.5f vs actual %.5f", r.OwampLoss, r.DeviceLoss)
	}
	collapse := float64(r.CleanTCP) / float64(r.FaultyTCP)
	if collapse < 5 {
		t.Errorf("TCP collapse = %.1fx, want dramatic", collapse)
	}
	if !strings.Contains(r.Render(), "OWAMP") {
		t.Error("render missing content")
	}
}

func TestFig8Relationships(t *testing.T) {
	r := Fig8(runCtx(t))
	if r.InFactor() < 4 {
		t.Errorf("inbound improvement %.1fx, paper ~5x", r.InFactor())
	}
	if r.OutFactor() < 4 {
		t.Errorf("outbound improvement %.1fx, paper ~12x", r.OutFactor())
	}
	// Broken rates sit near the 64 KiB window cap.
	if float64(r.BrokenIn) > 1.3*float64(r.WindowCap) {
		t.Errorf("broken inbound %v well above window cap %v", r.BrokenIn, r.WindowCap)
	}
	if r.RequiredWindow != 1_250_000 {
		t.Errorf("Eq 2 window = %v", r.RequiredWindow)
	}
	if !strings.Contains(r.Render(), "Eq 2") {
		t.Error("render missing content")
	}
}

func TestFig2DashboardShowsDegradedSite(t *testing.T) {
	skipIfShort(t)
	r := Fig2(runCtx(t))
	if !strings.Contains(r.Grid, "BAD") && !strings.Contains(r.Grid, "WRN") {
		t.Errorf("grid shows no degradation:\n%s", r.Grid)
	}
	if !strings.Contains(r.Grid, "OK") {
		t.Errorf("grid shows no healthy paths:\n%s", r.Grid)
	}
	if len(r.Alerts) == 0 {
		t.Error("no alerts for the degraded site")
	}
	if r.WorstSrc != r.BadSite && r.WorstDst != r.BadSite {
		t.Errorf("worst path %s>%s does not involve %s", r.WorstSrc, r.WorstDst, r.BadSite)
	}
	if !strings.Contains(r.Render(), "dashboard") {
		t.Error("render missing content")
	}
}

func TestFig3BeforeAfter(t *testing.T) {
	skipIfShort(t)
	r := Fig3(runCtx(t))
	if r.Speedup() < 10 {
		t.Errorf("speedup = %.1fx (%.0f -> %.0f Mbps), want order of magnitude",
			r.Speedup(), float64(r.CampusRate)/1e6, float64(r.DMZRate)/1e6)
	}
	if r.CampusCrit == 0 {
		t.Error("campus should have critical findings")
	}
	if r.DMZCrit != 0 {
		t.Error("DMZ should be compliant")
	}
	// Paths differ: DMZ path has no fw hop.
	for _, hop := range r.DMZPath {
		if hop == "fw" {
			t.Errorf("DMZ path %v crosses firewall", r.DMZPath)
		}
	}
	if !strings.Contains(r.Render(), "speedup") {
		t.Error("render missing content")
	}
}

func TestFig4IngestionPaths(t *testing.T) {
	r := Fig4(runCtx(t))
	if r.DTNRate <= 4*r.LoginRate {
		t.Errorf("DTN %v vs login %v: want dramatic advantage", r.DTNRate, r.LoginRate)
	}
	if r.DTNFor40TB == 0 || r.LoginFor40TB == 0 {
		t.Error("plan durations missing")
	}
	if r.DTNFor40TB > 5*24*time.Hour {
		t.Errorf("40TB via DTNs = %v, should be days at most", r.DTNFor40TB)
	}
	if !strings.Contains(r.Render(), "40 TB") {
		t.Error("render missing content")
	}
}

func TestFig5BigDataSite(t *testing.T) {
	skipIfShort(t)
	r := Fig5(runCtx(t))
	if r.AggregateGbps < 20 {
		t.Errorf("aggregate = %.1f Gbps, want > 20 on a 40G WAN", r.AggregateGbps)
	}
	if !r.OfficeOK {
		t.Error("enterprise flow should still complete")
	}
	if r.ClusterFlows != 72 { // 6x6 all-pairs mesh, 2 flows each
		t.Errorf("flows = %d", r.ClusterFlows)
	}
	if !strings.Contains(r.Render(), "aggregate") {
		t.Error("render missing content")
	}
}

func TestFig67Colorado(t *testing.T) {
	skipIfShort(t)
	r := Fig67(runCtx(t))
	if !r.Degraded {
		t.Error("faulty switch should degrade")
	}
	if float64(r.FixedPerHost) < 1.5*float64(r.BrokenPerHost) {
		t.Errorf("fix recovered only %.1fx", float64(r.FixedPerHost)/float64(r.BrokenPerHost))
	}
	if float64(r.FixedPerHost) < 0.6*float64(r.FairShare) {
		t.Errorf("fixed per-host %v below fair share %v", r.FixedPerHost, r.FairShare)
	}
	if r.AlertsRaised == 0 {
		t.Error("perfSONAR should have alerted during the fault")
	}
	if !strings.Contains(r.Render(), "fan-in") {
		t.Error("render missing content")
	}
}

func TestNOAARepatriation(t *testing.T) {
	skipIfShort(t)
	r := NOAA(runCtx(t))
	mbs := float64(r.FTPRate) / 8e6
	if mbs < 0.5 || mbs > 5 {
		t.Errorf("FTP = %.1f MB/s, paper: 1-2 MB/s", mbs)
	}
	if r.Speedup() < 50 {
		t.Errorf("speedup = %.0fx, paper: ~200x", r.Speedup())
	}
	if r.DatasetTime > time.Hour {
		t.Errorf("dataset = %v, paper: ~10 minutes", r.DatasetTime)
	}
	if r.FTPDatasetTime < 24*time.Hour {
		t.Errorf("FTP dataset = %v, should be days", r.FTPDatasetTime)
	}
	if !strings.Contains(r.Render(), "NOAA") {
		t.Error("render missing content")
	}
	checkGolden(t, "noaa.txt", r.Render())
}

func TestNERSCCarbon14(t *testing.T) {
	skipIfShort(t)
	r := NERSC(runCtx(t))
	if r.Legacy33GB < 5*time.Hour {
		t.Errorf("legacy 33GB = %v, paper: 'more than an entire workday'", r.Legacy33GB)
	}
	mbs := float64(r.DTNRate) / 8e6
	if mbs < 120 || mbs > 260 {
		t.Errorf("DTN rate = %.0f MB/s, paper: 200 MB/s", mbs)
	}
	if r.DTN40TB > 3*24*time.Hour {
		t.Errorf("40TB = %v, paper: < 3 days", r.DTN40TB)
	}
	if !strings.Contains(r.Render(), "carbon-14") {
		t.Error("render missing content")
	}
	checkGolden(t, "nersc.txt", r.Render())
}

func TestRoCECircuits(t *testing.T) {
	skipIfShort(t)
	r := RoCE(runCtx(t))
	if r.CircuitGbps < 37 {
		t.Errorf("circuit RoCE = %.1f, paper: 39.5", r.CircuitGbps)
	}
	if r.NoCircuitGbps > r.CircuitGbps/2 {
		t.Errorf("no-circuit RoCE = %.1f vs %.1f: should collapse", r.NoCircuitGbps, r.CircuitGbps)
	}
	if r.CPUFactor < 49.9 || r.CPUFactor > 50.1 {
		t.Errorf("CPU factor = %.1f", r.CPUFactor)
	}
	if !strings.Contains(r.Render(), "RoCE") {
		t.Error("render missing content")
	}
}

func TestSDNBypassExperiment(t *testing.T) {
	skipIfShort(t)
	r := SDNBypass(runCtx(t))
	if r.BypassGbps < 3*r.FirewalledGbps {
		t.Errorf("bypass %.2f vs firewalled %.2f: want big win", r.BypassGbps, r.FirewalledGbps)
	}
	if r.SetupInspected == 0 {
		t.Error("setup packets should traverse the firewall")
	}
	if !strings.Contains(r.Render(), "bypass") {
		t.Error("render missing content")
	}
}

func TestAuditDesigns(t *testing.T) {
	r := AuditDesigns(runCtx(t))
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0].Compliant {
		t.Error("campus should be non-compliant")
	}
	if !r.Rows[1].Compliant {
		t.Error("retrofit should be compliant")
	}
	if !strings.Contains(r.Render(), "compliant") {
		t.Error("render missing content")
	}
}

func TestSawtoothShape(t *testing.T) {
	skipIfShort(t)
	r := Sawtooth(runCtx(t), 20*time.Millisecond, 2*time.Second, 8*time.Second)
	if r.Backoffs < 3 {
		t.Fatalf("backoffs = %d", r.Backoffs)
	}
	if r.Cwnd.Len() < 100 {
		t.Fatalf("cwnd samples = %d", r.Cwnd.Len())
	}
	// Sawtooth: max well above mean, and cwnd must both rise and fall.
	if r.Cwnd.Max() <= r.Cwnd.Mean()*1.2 {
		t.Error("no sawtooth relief in cwnd trace")
	}
	rises, falls := 0, 0
	for i := 1; i < r.Cwnd.Len(); i++ {
		if r.Cwnd.Values[i] > r.Cwnd.Values[i-1] {
			rises++
		}
		if r.Cwnd.Values[i] < r.Cwnd.Values[i-1]*0.8 {
			falls++
		}
	}
	if rises < 50 || falls < 3 {
		t.Errorf("rises=%d falls=%d; want slow recovery + sharp backoffs", rises, falls)
	}
	if !strings.Contains(r.Render(), "sawtooth") {
		t.Error("render missing content")
	}
}

// TestSawtoothSameUnderTelemetry: observing a run never changes it. A
// telemetry plane sampling every 100 ms must leave the cwnd and goodput
// traces exactly as an unobserved run draws them.
func TestSawtoothSameUnderTelemetry(t *testing.T) {
	skipIfShort(t)
	plain := Sawtooth(runCtx(t), 20*time.Millisecond, 2*time.Second, 3*time.Second)
	observed := runCtx(t)
	observed.Telemetry = telemetry.New()
	observed.Telemetry.SampleInterval = 100 * time.Millisecond
	traced := Sawtooth(observed, 20*time.Millisecond, 2*time.Second, 3*time.Second)
	if len(observed.Telemetry.Snapshots) == 0 {
		t.Fatal("the telemetry plane took no snapshots")
	}
	if got, want := traced.Render(), plain.Render(); got != want {
		t.Errorf("sampling changed the sawtooth:\n--- without telemetry ---\n%s\n--- with ---\n%s", want, got)
	}
	if !reflect.DeepEqual(traced.Rate, plain.Rate) {
		t.Error("sampling changed the goodput trace")
	}
}

func TestHybridExperiment(t *testing.T) {
	skipIfShort(t)
	r := Hybrid(runCtx(t))
	if !r.Pass() {
		for _, v := range r.Validation {
			for _, f := range v.Failures(r.Tolerance) {
				t.Errorf("%s: %s", v.Scenario.Name, f)
			}
		}
		t.Error("hybrid experiment failed validation or audit")
	}
	// The headline: at 100x the background flows, the hybrid run must
	// execute fewer events than the all-packet reference at 1x.
	ref := r.Scale[0]
	last := r.Scale[len(r.Scale)-1]
	if ref.Packet == nil {
		t.Fatal("missing all-packet reference at the smallest scale")
	}
	if last.Hybrid.Events >= ref.Packet.Events {
		t.Errorf("hybrid at %d flows ran %d events, all-packet at %d flows ran %d: no win",
			last.Flows, last.Hybrid.Events, ref.Flows, ref.Packet.Events)
	}
	checkGolden(t, "hybrid.txt", r.Render())
}
