// Soft failure (§2.1): a line card starts dropping roughly one packet
// in 22,000 — far too little for SNMP error counters, but enough to
// collapse TCP throughput over a 16 ms RTT path. This example injects
// exactly that fault into a four-site measurement mesh and shows the
// paper's core argument about test-and-measurement cadence: the same
// fault that hides for months without regular testing is caught in
// about one test period once scheduled BWCTL runs are in place, and
// on-demand OWAMP probing then localizes it to the guilty link.
//
// Run with: go run ./examples/soft-failure
package main

import (
	_ "embed"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

//go:embed scenario.json
var scenarioJSON []byte

func main() {
	traceSpans := flag.Bool("trace-spans", false,
		"run one instrumented scenario with a reference transfer during the fault and print its critical-path analysis")
	shards := flag.Int("shards", 1, "run the simulated network on N parallel shards; output is byte-identical at any N")
	flag.Parse()
	ctx := &harness.Ctx{Shards: *shards}
	sc, err := fault.ParseScenario(scenarioJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *traceSpans {
		runTraceSpans(ctx, sc)
		return
	}
	f := sc.Faults[0]
	fmt.Printf("Scenario %q: %d-site mesh at %g Mbps.\n", sc.Name, sc.Topology.Sites, sc.Topology.RateMbps)
	fmt.Printf("At t=%s the %s link starts dropping 1 packet in %d; the optic\n",
		f.Onset, f.Link, f.Loss.N)
	fmt.Println("reports clean SNMP counters throughout. How fast the NOC notices is")
	fmt.Println("purely a function of how often it tests:")
	fmt.Println()

	res, err := fault.RunCampaign(ctx, fault.CampaignConfig{
		Base: sc,
		Periods: []time.Duration{
			120 * time.Second, 60 * time.Second, 30 * time.Second, 15 * time.Second,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(res.Render())

	// The example doubles as a regression check: the paper's claim only
	// reproduces if every cadence detects, localizes, and recovers, and
	// detection time shrinks monotonically with the test period.
	prev := time.Duration(-1)
	for _, row := range res.Rows {
		v := row.Verdict
		if !v.Detected || !v.Recovered {
			fmt.Fprintf(os.Stderr, "period %v: fault not caught (detected=%v recovered=%v)\n",
				row.Period, v.Detected, v.Recovered)
			os.Exit(1)
		}
		if !v.Localized {
			fmt.Fprintf(os.Stderr, "period %v: localization picked %q, want the injected link\n",
				row.Period, v.TopSuspect)
			os.Exit(1)
		}
		if prev >= 0 && v.MTTD >= prev {
			fmt.Fprintf(os.Stderr, "MTTD did not shrink with cadence: %v then %v\n", prev, v.MTTD)
			os.Exit(1)
		}
		prev = v.MTTD
	}

	fmt.Println("Every cadence caught the fault and OWAMP probing pinned it to the")
	fmt.Printf("injected link; detection time fell from %v to %v as the test\n",
		res.Rows[0].Verdict.MTTD.Round(time.Second), res.Rows[len(res.Rows)-1].Verdict.MTTD.Round(time.Second))
	fmt.Println("period shortened. Without scheduled testing the paper reports this")
	fmt.Println("class of failure surviving for months.")
}

// Reference-transfer parameters for -trace-spans: a 2 GB "science
// data" transfer launched while the fault is active, so the span layer
// has a degraded elephant flow to explain. The size matters: it has to
// run long enough that the loss-driven steady state dominates and the
// startup transient (handshake, slow-start ramp) amortizes to noise.
const (
	refSize  = 2 * units.GB
	refStart = 150 * time.Second // fault onset 2m4s, clear 5m4s
	refPort  = 5001              // BWCTL owns 5201
)

// runTraceSpans runs the scenario once with span collection attached,
// launches the reference transfer during the fault window, and prints
// the critical-path analysis of why it was slow. It exits nonzero
// unless the analysis attributes at least 90% of the transfer's excess
// duration to the injected fault's signature buckets (recovery and
// cwnd-limited) — the span layer's own regression check.
func runTraceSpans(ctx *harness.Ctx, sc *fault.Scenario) {
	ctx.Telemetry = telemetry.New()
	col := trace.NewCollector()
	col.Attach(ctx.Telemetry.Bus)
	n := ctx.Adopt("fault", netsim.New(harness.Seed("fault", sc.Name, "net")))

	var refStats *tcp.Stats
	ready := func(n *netsim.Network) {
		src := n.Node("site1").(*netsim.Host)
		dst := n.Node("site2").(*netsim.Host)
		srv := tcp.NewServer(dst, refPort, tcp.Tuned())
		n.Sched.After(refStart, func() {
			tcp.Dial(src, srv, refSize, tcp.Tuned(), func(st *tcp.Stats) { refStats = st })
		})
	}
	if _, err := fault.ExecuteWith(n, sc, nil, ready); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if refStats == nil || !refStats.Done {
		fmt.Fprintln(os.Stderr, "reference transfer did not complete inside the scenario")
		os.Exit(1)
	}

	var ref *trace.FlowTrace
	for _, ft := range col.Flows() {
		if strings.HasSuffix(ft.Flow, fmt.Sprintf(">site2:%d", refPort)) {
			ref = ft
		}
	}
	if ref == nil {
		fmt.Fprintln(os.Stderr, "no span tree assembled for the reference transfer")
		os.Exit(1)
	}

	f := sc.Faults[0]
	fmt.Printf("Reference transfer: %v site1>site2 starting at t=%v, inside the\n", refSize, refStart)
	fmt.Printf("%s fault window (1 packet in %d dropped on %s).\n\n", f.Type, f.Loss.N, f.Link)
	// Baseline 0 self-calibrates from the transfer's own best sustained
	// interval: what the path demonstrably delivers between loss events,
	// with framing overhead already paid. Against the raw line rate every
	// bucket would carry a few percent of header-tax "excess".
	rep := trace.Analyze(ref, 0, col.Faults())
	rep.Render(os.Stdout)

	share := rep.ExcessShare(telemetry.PhaseRecovery, telemetry.PhaseCwndLimited)
	fmt.Printf("\n%.1f%% of the transfer's excess time is attributed to the fault's\n", 100*share)
	fmt.Println("signature (loss recovery + the collapsed congestion window it leaves).")
	if share < 0.9 {
		fmt.Fprintf(os.Stderr, "critical path attribution too weak: %.1f%% < 90%%\n", 100*share)
		os.Exit(1)
	}
	if err := ctx.Audit(); err != nil {
		fmt.Fprintln(os.Stderr, "invariant violated:", err)
		os.Exit(1)
	}
}
