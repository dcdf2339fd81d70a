// Campus upgrade: the §6.1 University of Colorado story end to end.
//
// The physics group's 1G hosts feed a cut-through aggregation switch
// whose store-and-forward fallback has inadequate buffers. As the group
// grows, per-host throughput collapses; perfSONAR's regular testing
// alerts, the switch is replaced, and performance returns to fair-share
// line rate.
//
// Run with: go run ./examples/campus-upgrade
//
// With -background-flows N (try 100000), N enterprise mice ride the
// hybrid fluid engine from campus hosts behind the firewall to the same
// remote site, sharing the border WAN link with the science flows. The
// background is analytic — its cost is one engine tick regardless of N
// — while the physics transfers stay packet-accurate. Output is
// byte-identical at any -shards value.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/flowgen"
	"repro/internal/fluid"
	"repro/internal/harness"
	"repro/internal/perfsonar"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

func measure(c *topo.Colorado, bgFlows int) (perHost units.BitRate, alerts int, aggs []*fluid.Aggregate) {
	// perfSONAR: regular throughput tests from the 1G measurement host.
	// The floor is set below what a short test achieves on a healthy
	// path (a 2 s test at WAN RTT spends much of its life in slow
	// start), but far above what the degraded switch lets through.
	mesh := perfsonar.NewMesh(c.Perf1G, c.RemoteTier2.Host)
	alerter := &perfsonar.Alerter{ThroughputFloor: 250 * units.Mbps}
	alerter.Watch(mesh.Archive)
	mesh.StartBWCTL(4*time.Second, 2*time.Second, tcp.Tuned())

	// Enterprise background: N mice over the 8 s run, fluid-modeled,
	// entering at the campus hosts behind the firewall.
	if bgFlows > 0 {
		eng := fluid.New(c.Net, fluid.Config{PacketFlows: float64(len(c.Physics))})
		var err error
		aggs, err = flowgen.StartBusinessFluid(eng, c.RemoteTier2.Host, c.CampusHosts, flowgen.BusinessFluid{
			Name:           "business",
			FlowsPerSecond: float64(bgFlows) / 8,
			MeanSize:       25 * units.KB, // web/mail-sized mice
			Flows:          bgFlows / 25,
		})
		if err != nil {
			panic(err)
		}
		eng.Start()
	}

	// The physics cluster pushes data to the remote Tier-2.
	srv := tcp.NewServer(c.RemoteTier2.Host, 2811, c.RemoteTier2.Tuning)
	var conns []*tcp.Conn
	for _, ph := range c.Physics {
		conns = append(conns, tcp.Dial(ph.Host, srv, -1, ph.Tuning, nil))
	}
	c.Net.RunFor(8 * time.Second)

	var sum units.BitRate
	for _, conn := range conns {
		sum += conn.Stats().Throughput()
	}
	return sum / units.BitRate(len(conns)), len(alerter.Alerts), aggs
}

func main() {
	shards := flag.Int("shards", 1, "run the simulated network on N parallel shards; output is byte-identical at any N")
	bgFlows := flag.Int("background-flows", 0, "enterprise background mice over the run, advanced by the hybrid fluid engine (0 = none; try 100000)")
	flag.Parse()
	ctx := &harness.Ctx{Shards: *shards}

	cfg := topo.ColoradoConfig{}
	if *bgFlows > 0 {
		cfg.CampusHosts = 8
	}

	fmt.Println("== before: cut-through switch with inadequate SF buffers ==")
	before := topo.NewColorado(1, cfg)
	ctx.Adopt("before", before.Net)
	rate, alerts, _ := measure(before, *bgFlows)
	fmt.Printf("per-host throughput: %v across %d hosts\n", rate, len(before.Physics))
	fmt.Printf("switch degraded to store-and-forward: %v\n", before.PhysicsAgg.Degraded)
	fmt.Printf("store-and-forward pool drops: %d; perfSONAR alerts: %d\n\n",
		before.PhysicsAgg.SFDrops, alerts)

	fmt.Println("== after: replacement hardware with adequate buffers ==")
	fixed := cfg
	fixed.FixedSwitch = true
	after := topo.NewColorado(1, fixed)
	ctx.Adopt("after", after.Net)
	rate2, alerts2, aggs := measure(after, *bgFlows)
	fmt.Printf("per-host throughput: %v of the 1G host NICs\n", rate2)
	fmt.Printf("switch degraded: %v; perfSONAR alerts: %d\n", after.PhysicsAgg.Degraded, alerts2)
	fmt.Printf("\nrecovery: %.1fx per host — 'near line rate for each member' (§6.1)\n",
		float64(rate2)/float64(rate))

	if *bgFlows > 0 {
		off, del := flowgen.FluidOffered(aggs), flowgen.FluidDelivered(aggs)
		loss := 0.0
		if off > 0 {
			loss = 1 - float64(del)/float64(off)
		}
		fmt.Printf("\n== hybrid background (fluid ledger, post-fix run) ==\n")
		fmt.Printf("flows: %d across %d campus hosts (behind the firewall)\n", *bgFlows, len(after.CampusHosts))
		fmt.Printf("offered: %v  delivered: %v  loss: %.3f\n", off, del, loss)
		if errs := after.Net.AuditInvariants(); len(errs) != 0 {
			fmt.Printf("AUDIT FAILED: %v\n", errs)
		} else {
			fmt.Println("conservation audit: clean (packet + fluid byte columns balance)")
		}
	}
	if err := ctx.Audit(); err != nil {
		fmt.Fprintln(os.Stderr, "invariant violated:", err)
		os.Exit(1)
	}
}
