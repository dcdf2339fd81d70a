package shard

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/dtn"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/fluid"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/units"
)

// The cross-shard equivalence suite: the merge gate for the sharded
// engine. Every test runs the same scenario at shard counts 1, 2, and
// 4 and requires byte-identical results — rendered experiment tables,
// the full trace event stream, exported metrics, and the packet
// conservation ledger. Shard count 1 is the single-threaded reference:
// it runs the identical engine code path (barrier windows, lanes,
// canonical merge) on one scheduler with no worker goroutines, and is
// the default every network runs at.

// equivalenceCounts are the shard counts every scenario must agree on.
var equivalenceCounts = []int{1, 2, 4}

// runCtx returns a run context at the given shard count whose networks
// are audited when the test ends.
func runCtx(t *testing.T, shards int) *harness.Ctx {
	ctx := &harness.Ctx{Shards: shards}
	t.Cleanup(func() {
		if err := ctx.Audit(); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
	})
	return ctx
}

// requireAllEqual asserts every shard count produced the same string,
// reporting the first diverging line against the count-1 reference.
func requireAllEqual(t *testing.T, what string, got map[int]string) {
	t.Helper()
	ref := got[1]
	for _, n := range equivalenceCounts {
		if got[n] == ref {
			continue
		}
		a, b := ref, got[n]
		line, col := 1, 1
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				break
			}
			if a[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
		}
		t.Fatalf("%s diverges between shards=1 and shards=%d at line %d col %d:\nshards=1: %q\nshards=%d: %q",
			what, n, line, col, excerpt(a, line), n, excerpt(b, line))
	}
}

func excerpt(s string, line int) string {
	cur := 1
	start := 0
	for i := 0; i < len(s); i++ {
		if cur == line {
			end := i
			for end < len(s) && s[end] != '\n' {
				end++
			}
			return s[start:end]
		}
		if s[i] == '\n' {
			cur++
			start = i + 1
		}
	}
	return s[start:]
}

// TestEquivalenceFig1 runs the paper's Figure 1 sweep (quick axis)
// through the parallel sweep harness at every shard count and requires
// the rendered table — every throughput number — byte-identical.
func TestEquivalenceFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulations; skipped in -short")
	}
	cfg := experiments.Fig1Config{
		RTTs:     []time.Duration{4 * time.Millisecond, 20 * time.Millisecond},
		Duration: 2 * time.Second,
	}
	got := make(map[int]string)
	for _, n := range equivalenceCounts {
		got[n] = experiments.Fig1(&harness.Ctx{Shards: n, Parallel: 1}, cfg).Render()
	}
	requireAllEqual(t, "Fig1 render", got)
}

// TestEquivalenceSweep runs a loss-axis parameter sweep at every shard
// count: the sweep harness already proves worker-count invariance, and
// this adds shard-count invariance on top.
func TestEquivalenceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulations; skipped in -short")
	}
	cfg := experiments.SweepConfig{
		Axis: "loss", Min: 1e-5, Max: 1e-3, Points: 3,
		Duration: time.Second,
	}
	got := make(map[int]string)
	for _, n := range equivalenceCounts {
		res, err := experiments.RunSweep(&harness.Ctx{Shards: n, Parallel: 1}, cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		got[n] = res.Render()
	}
	requireAllEqual(t, "sweep render", got)
}

// TestEquivalenceFaultScenario runs the soft-failure closed loop — the
// §2.1 reproduction with fault injection, OWAMP detection, and
// localization — at every shard count and requires identical reports.
func TestEquivalenceFaultScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulated scenario; skipped in -short")
	}
	raw, err := os.ReadFile("../../examples/soft-failure/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := fault.ParseScenario(raw)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]string)
	for _, n := range equivalenceCounts {
		rep, err := fault.Run(runCtx(t, n), sc)
		if err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
		got[n] = rep.Render()
	}
	requireAllEqual(t, "fault report", got)
}

// traceRun is one shard count's observable output for the golden
// harness: the complete trace event stream, the exported metric
// snapshot, the conservation ledger, and the transfer result.
type traceRun struct {
	events  []telemetry.Event
	metrics string
	ledger  netsim.Conservation
	result  string
}

func captureRun(t *testing.T, shards int) traceRun {
	t.Helper()
	var out traceRun
	ctx := runCtx(t, shards)
	ctx.Telemetry = telemetry.New()
	ctx.Telemetry.Bus.Subscribe(func(ev *telemetry.Event) {
		out.events = append(out.events, *ev)
	})

	d := topo.NewSimpleDMZ(7, topo.SimpleDMZConfig{})
	ctx.Adopt("dmz", d.Net)
	var res *dtn.Result
	dtn.GridFTP{Streams: 4}.Start(d.RemoteDTN, d.DTN, 64*units.MB,
		func(r *dtn.Result) { res = r })
	d.Net.RunFor(3 * time.Second)

	out.ledger = d.Net.Conservation()
	snap := ctx.Telemetry.Registry.Snapshot(d.Net.Sched.Now())
	for _, s := range snap.Samples {
		// Partition-dependent diagnostics are excluded from golden
		// metrics by construction; everything exported must match.
		out.metrics += fmt.Sprintf("%s%v=%v\n", s.Name, s.Labels, s.Value)
	}
	if res != nil {
		out.result = fmt.Sprintf("%v in %v", res.Size, res.Duration())
	}
	return out
}

// TestEquivalenceTraceGolden is the trace-level gate: the merged trace
// event stream, metric export, ledger, and transfer result of a Figure
// 3 GridFTP run must be byte-identical at shard counts 1, 2, and 4.
// On divergence it reports the first differing trace event — the
// debugging entry point the harness exists to provide.
func TestEquivalenceTraceGolden(t *testing.T) {
	runs := make(map[int]traceRun)
	for _, n := range equivalenceCounts {
		runs[n] = captureRun(t, n)
	}
	ref := runs[1]
	if len(ref.events) == 0 {
		t.Fatal("reference run produced no trace events; the harness is not observing anything")
	}
	for _, n := range equivalenceCounts[1:] {
		run := runs[n]
		limit := len(ref.events)
		if len(run.events) < limit {
			limit = len(run.events)
		}
		for i := 0; i < limit; i++ {
			if ref.events[i] != run.events[i] {
				t.Fatalf("first diverging trace event at index %d:\nshards=1: %+v\nshards=%d: %+v",
					i, ref.events[i], n, run.events[i])
			}
		}
		if len(ref.events) != len(run.events) {
			t.Fatalf("trace length diverges: shards=1 has %d events, shards=%d has %d (first extra: %+v)",
				len(ref.events), n, len(run.events),
				longerOf(ref.events, run.events)[limit])
		}
		if ref.ledger != run.ledger {
			t.Errorf("ledger diverges: shards=1 %v, shards=%d %v", ref.ledger, n, run.ledger)
		}
		if ref.metrics != run.metrics {
			t.Errorf("metrics diverge:\nshards=1:\n%s\nshards=%d:\n%s", ref.metrics, n, run.metrics)
		}
		if ref.result != run.result {
			t.Errorf("transfer result diverges: shards=1 %q, shards=%d %q", ref.result, n, run.result)
		}
	}
	if !ref.ledger.Balanced() {
		t.Errorf("ledger does not balance: %v", ref.ledger)
	}
}

func longerOf(a, b []telemetry.Event) []telemetry.Event {
	if len(a) > len(b) {
		return a
	}
	return b
}

// TestEquivalenceLossyCutDrops drives wire loss on both directions of
// the cut WAN links at once, so each direction's drops are counted from
// its own shard's goroutine. For each run seed, per-link wire-loss
// tallies, every drop site and the sorted (send time, packet ID) list of
// wire drops must agree at every shard count, and the links' tallies
// must sum to the network's wire-loss total. Across seeds the lists must
// differ: every wire-loss stream is rooted in the run seed, so seeded
// replicates are independent.
func TestEquivalenceLossyCutDrops(t *testing.T) {
	seeds := []int64{1, 2, 3}
	lists := make(map[int64]string)
	for _, seed := range seeds {
		wire := make(map[int]string)
		sites := make(map[int]string)
		lost := make(map[int]string)
		for _, n := range equivalenceCounts {
			d := topo.NewSimpleDMZ(seed, topo.SimpleDMZConfig{
				WAN: topo.WANConfig{Loss: netsim.RandomLoss{P: 0.01}},
			})
			runCtx(t, n).Adopt(fmt.Sprintf("seed %d", seed), d.Net)
			// The hook runs under the network's drop lock, so shards
			// append one at a time.
			var drops []wireDrop
			d.Net.DropHook = func(pkt *netsim.Packet, site netsim.DropSite) {
				if site.Reason == netsim.DropWireLoss {
					drops = append(drops, wireDrop{pkt.SentAt, pkt.ID})
				}
			}
			ftp := dtn.GridFTP{Streams: 4}
			ftp.Start(d.RemoteDTN, d.DTN, units.GB, nil)
			ftp.Start(d.DTN, d.RemoteDTN, units.GB, nil)
			d.Net.RunFor(3 * time.Second)

			var linkSum, siteSum uint64
			for _, l := range d.Net.Links() {
				linkSum += l.WireDrops()
				a, b := l.Ends()
				wire[n] += fmt.Sprintf("%s<->%s %d\n", a, b, l.WireDrops())
			}
			for _, sc := range d.Net.DropSites() {
				if sc.Site.Reason == netsim.DropWireLoss {
					siteSum += sc.Count
				}
				sites[n] += fmt.Sprintf("%v %d\n", sc.Site, sc.Count)
			}
			if linkSum == 0 || linkSum != siteSum || uint64(len(drops)) != siteSum {
				t.Errorf("seed %d shards=%d: links' wire drops sum to %d, wire-loss sites to %d, the hook saw %d",
					seed, n, linkSum, siteSum, len(drops))
			}
			sort.Slice(drops, func(i, j int) bool { return drops[i].less(drops[j]) })
			for _, w := range drops {
				lost[n] += fmt.Sprintf("%d %d\n", w.at, w.id)
			}
		}
		requireAllEqual(t, fmt.Sprintf("seed %d per-link wire drops", seed), wire)
		requireAllEqual(t, fmt.Sprintf("seed %d drop sites", seed), sites)
		requireAllEqual(t, fmt.Sprintf("seed %d wire-drop list", seed), lost)
		lists[seed] = lost[1]
	}
	requirePairwiseDistinct(t, "wire-drop list", seeds, lists)
}

// wireDrop identifies one packet lost on a wire.
type wireDrop struct {
	at sim.Time // when the sending host stamped it
	id uint64
}

func (a wireDrop) less(b wireDrop) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.id < b.id
}

// requirePairwiseDistinct asserts that no two seeds produced the same
// output.
func requirePairwiseDistinct(t *testing.T, what string, seeds []int64, got map[int64]string) {
	t.Helper()
	for i, a := range seeds {
		for _, b := range seeds[i+1:] {
			if got[a] == got[b] {
				t.Errorf("seeds %d and %d give the same %s: seeded replicates are not independent", a, b, what)
			}
		}
	}
}

// TestEquivalenceFluidSeedReplicates runs a bursty fluid aggregate
// across the cut WAN of the simple DMZ: each seed's delivered bytes must
// agree at every shard count, and differ between seeds, since the
// aggregate's stream is rooted in the run seed.
func TestEquivalenceFluidSeedReplicates(t *testing.T) {
	seeds := []int64{1, 2, 3}
	delivered := make(map[int64]string)
	for _, seed := range seeds {
		got := make(map[int]string)
		for _, n := range equivalenceCounts {
			d := topo.NewSimpleDMZ(seed, topo.SimpleDMZConfig{})
			runCtx(t, n).Adopt(fmt.Sprintf("seed %d", seed), d.Net)
			eng := fluid.New(d.Net, fluid.Config{})
			agg, err := eng.Add(fluid.AggregateConfig{
				Name: "bursty", Src: d.RemoteDTN.Host.Name(), Dst: d.DTN.Host.Name(),
				FlowsPerSecond: 2000, Burstiness: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			eng.Start()
			d.Net.RunFor(2 * time.Second)
			got[n] = fmt.Sprintf("delivered=%d\n", agg.DeliveredBytes())
		}
		requireAllEqual(t, fmt.Sprintf("seed %d fluid delivered bytes", seed), got)
		delivered[seed] = got[1]
	}
	requirePairwiseDistinct(t, "fluid delivered bytes", seeds, delivered)
}
