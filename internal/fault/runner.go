package fault

import (
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/perfsonar"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/units"
)

// bwctlStart is when the first scheduled BWCTL test runs. It exists so
// every scenario gets at least one healthy test (the baseline) before
// any reasonable fault onset, independent of the test period.
const bwctlStart = time.Second

// Report is the outcome of one scenario run: the monitor's verdicts
// against the injected ground truth, plus the raw pieces for rendering.
type Report struct {
	Scenario *Scenario
	Sites    []string
	Verdicts []Verdict
	Episodes []*Episode

	Archive  *perfsonar.Archive
	Monitor  *Monitor
	Injector *Injector
}

// Execute builds the scenario's topology and measurement deployment on
// the given (empty) network, injects the faults, runs for the scenario
// duration, and scores the monitor. seed derives the per-fault random
// streams — pass ctx.Seed under the harness, or nil for the standalone
// default.
func Execute(n *netsim.Network, sc *Scenario, seed func(stream string) int64) (*Report, error) {
	return ExecuteWith(n, sc, seed, nil)
}

// ExecuteWith is Execute with a ready hook: when non-nil, ready runs
// after the topology, measurement mesh, and monitor are built but
// before the injector starts and the clock advances — the place to
// schedule extra instrumented traffic (a reference transfer for span
// analysis) or wire additional observers onto the network.
func ExecuteWith(n *netsim.Network, sc *Scenario, seed func(stream string) int64, ready func(*netsim.Network)) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	topo := sc.Topology
	if topo.Sites == 0 {
		topo.Sites = 4
	}
	rate := units.BitRate(topo.RateMbps) * units.Mbps
	if topo.RateMbps == 0 {
		rate = 1000 * units.Mbps
	}
	delay := topo.Delay.D()
	if delay == 0 {
		delay = 8 * time.Millisecond
	}
	core := n.NewDevice("backbone", netsim.DeviceConfig{EgressBuffer: 16 * units.MB})
	var sites []string
	var hosts []*netsim.Host
	for i := 1; i <= topo.Sites; i++ {
		name := fmt.Sprintf("site%d", i)
		h := n.NewHost(name)
		n.Connect(h, core, netsim.LinkConfig{Rate: rate, Delay: delay, MTU: topo.MTU})
		sites = append(sites, name)
		hosts = append(hosts, h)
	}
	n.ComputeRoutes()

	mesh := perfsonar.NewMesh(hosts...)
	mcfg := MonitorConfig{
		LossThreshold:    sc.Monitor.LossThreshold,
		ThroughputFactor: sc.Monitor.ThroughputFactor,
		ProbeInterval:    sc.Monitor.ProbeInterval.D(),
		ProbeWindow:      sc.Monitor.ProbeWindow.D(),
		CloseHold:        sc.Monitor.CloseHold.D(),
	}
	if sc.Monitor.OwampInterval > 0 {
		// Continuous probing already covers the mesh; starting a second
		// probe stream per pair on detection would corrupt the
		// receivers' schedule accounting.
		mcfg.ProbeInterval = -1
	}
	mon := NewMonitor(n, mesh, mcfg)

	inj, err := NewInjector(n, sc, seed)
	if err != nil {
		return nil, err
	}

	if iv := sc.Monitor.OwampInterval.D(); iv > 0 {
		mesh.StartOWAMP(iv)
	}
	if period := sc.Monitor.BWCTLPeriod.D(); period > 0 {
		src, dst := sc.Monitor.BWCTLSrc, sc.Monitor.BWCTLDst
		if src == "" {
			src = "site1"
		}
		if dst == "" {
			dst = "site2"
		}
		tkSrc, tkDst := toolkitOf(mesh, sites, src), toolkitOf(mesh, sites, dst)
		if tkSrc == nil || tkDst == nil {
			return nil, fmt.Errorf("fault scenario %s: BWCTL pair %s>%s not in the topology", sc.Name, src, dst)
		}
		dur := sc.Monitor.BWCTLDuration.D()
		if dur == 0 {
			dur = time.Second
		}
		tkSrc.ScheduleBWCTL(tkDst, bwctlStart, period, dur, tcp.Tuned())
	}

	if tele := n.Telemetry(); tele != nil {
		mon.BindRegistry(tele.Registry, inj)
		inj.BindRegistry(tele.Registry)
	}

	if ready != nil {
		ready(n)
	}
	inj.Start()
	n.RunFor(sc.Duration.D())

	return &Report{
		Scenario: sc,
		Sites:    sites,
		Verdicts: mon.Score(inj),
		Episodes: mon.Episodes,
		Archive:  mesh.Archive,
		Monitor:  mon,
		Injector: inj,
	}, nil
}

func toolkitOf(mesh *perfsonar.Mesh, sites []string, name string) *perfsonar.Toolkit {
	for i, s := range sites {
		if s == name {
			return mesh.Toolkits[i]
		}
	}
	return nil
}

// Run executes a scenario standalone on a fresh network that ctx adopts
// (so its telemetry plane, when set, sees the run: dmzsim -faults
// -trace).
func Run(ctx *harness.Ctx, sc *Scenario) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return Execute(ctx.Adopt("fault", netsim.New(harness.Seed("fault", sc.Name, "net"))), sc, nil)
}

// Render produces the scenario report: one row per injected fault with
// the closed loop's self-assessment.
func (r *Report) Render() string {
	tb := stats.NewTable(
		fmt.Sprintf("Fault scenario %q: %d sites, %d episode(s) detected", r.Scenario.Name, len(r.Sites), len(r.Episodes)),
		"fault", "target", "onset", "MTTD", "MTTR", "localized")
	for _, v := range r.Verdicts {
		onset := "-"
		if v.Fault.OnsetAt >= 0 {
			onset = time.Duration(v.Fault.OnsetAt).String()
		}
		mttd, mttr := "not detected", "-"
		if v.Detected {
			mttd = v.MTTD.String()
		}
		if v.Recovered {
			mttr = v.MTTR.String()
		}
		loc := "-"
		if v.TopSuspect != "" {
			loc = fmt.Sprintf("%v (%s)", v.Localized, v.TopSuspect)
		}
		tb.Add(v.Fault.Key, v.Fault.Target, onset, mttd, mttr, loc)
	}
	return tb.String()
}
