// Quickstart: build the paper's Figure 3 "simple Science DMZ", audit it
// against the four sub-patterns, and move data — first the wrong way
// (through the campus firewall to an untuned host), then the right way
// (to the DTN on the DMZ).
//
// Run with: go run ./examples/quickstart
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dtn"
	"repro/internal/harness"
	"repro/internal/perfsonar"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

func main() {
	// 1. Build the Figure 3 topology: border router, DMZ switch with a
	//    DTN and a perfSONAR host, campus behind a firewall. The WAN is
	//    10G at ~25ms RTT.
	shards := flag.Int("shards", 1, "run the simulated network on N parallel shards; output is byte-identical at any N")
	flag.Parse()
	ctx := &harness.Ctx{Shards: *shards}

	d := topo.NewSimpleDMZ(1, topo.SimpleDMZConfig{})
	ctx.Adopt("dmz", d.Net)

	// 2. Audit it: the deployment satisfies all four patterns.
	dep := core.Deployment{
		Net: d.Net, Border: d.Border, DMZSwitch: d.DMZSwitch,
		DTNs:     []*dtn.Node{d.DTN},
		Monitors: []*perfsonar.Toolkit{perfsonar.NewToolkit(d.PerfSONAR, perfsonar.NewArchive())},
		WANHosts: []string{"remote-dtn"},
	}
	fmt.Print(core.Audit(dep))

	pr := core.DescribePath(dep, "remote-dtn", d.DTN)
	fmt.Printf("science path: %v (bottleneck %v, RTT %v, BDP %v)\n\n",
		pr.Hops, pr.Bottleneck, pr.RTT, pr.BDP)

	// 3. The wrong way: a transfer to a campus PC through the firewall
	//    with stock TCP settings.
	var slow *tcp.Stats
	campusSrv := tcp.NewServer(d.CampusPC, 5001, tcp.Legacy())
	tcp.Dial(d.RemoteDTN.Host, campusSrv, 50*units.MB, tcp.Legacy(),
		func(st *tcp.Stats) { slow = st })
	d.Net.RunFor(2 * time.Minute)
	fmt.Printf("campus path (firewalled, untuned): %v in %v = %v\n",
		slow.BytesAcked, slow.Duration().Round(time.Millisecond), slow.Throughput())

	// 4. The right way: GridFTP with parallel streams to the DTN.
	var fast *dtn.Result
	dtn.GridFTP{Streams: 4}.Start(d.RemoteDTN, d.DTN, 500*units.MB,
		func(r *dtn.Result) { fast = r })
	d.Net.RunFor(time.Minute)
	fmt.Printf("science DMZ path (GridFTP x4):     %v in %v = %v\n",
		fast.Size, fast.Duration().Round(time.Millisecond), fast.Throughput())

	fmt.Printf("\nspeedup: %.0fx\n", float64(fast.Throughput())/float64(slow.Throughput()))
	if err := ctx.Audit(); err != nil {
		fmt.Fprintln(os.Stderr, "invariant violated:", err)
		os.Exit(1)
	}
}
