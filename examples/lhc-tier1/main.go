// LHC Tier-1: the §4.3 big-data site plus the §7 future technologies.
//
// A transfer cluster moves data across the 40G WAN front-end while the
// enterprise side stays behind its firewalls; an OSCARS-style circuit is
// then reserved for an RDMA (RoCE) transfer, demonstrating the §7.1
// result: near-line-rate with a fraction of TCP's CPU cost — but only on
// the circuit.
//
// Run with: go run ./examples/lhc-tier1
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/circuit"
	"repro/internal/flowgen"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/rdma"
	"repro/internal/topo"
	"repro/internal/units"
)

func main() {
	shards := flag.Int("shards", 1, "run the simulated network on N parallel shards; output is byte-identical at any N")
	flag.Parse()
	ctx := &harness.Ctx{Shards: *shards}

	b := topo.NewBigData(1, topo.BigDataConfig{})
	ctx.Adopt("bigdata", b.Net)

	// 1. LHC-style transfer mesh across the data plane.
	var srcs, dsts []*netsim.Host
	for i := range b.RemoteCluster {
		srcs = append(srcs, b.RemoteCluster[i].Host)
		dsts = append(dsts, b.Cluster[i].Host)
	}
	mesh := flowgen.StartLHCMesh(srcs, dsts, 2811, 1)
	b.Net.RunFor(8 * time.Second)
	fmt.Printf("transfer mesh: %d flows, aggregate %.1f Gbps across the %v WAN\n",
		len(mesh.Conns), float64(mesh.Aggregate())/1e9, b.WAN.Rate)
	inspected := b.Firewalls[0].Stats.Inspected + b.Firewalls[1].Stats.Inspected
	fmt.Printf("science packets inspected by the enterprise firewalls: %d\n\n", inspected)

	// 2. Reserve a circuit for an overnight RoCE replication.
	svc := circuit.NewService(b.Net, "site")
	c, err := svc.Reserve("roce-replication",
		b.RemoteCluster[0].Host.Name(), b.Cluster[0].Host.Name(), 9*units.Gbps)
	if err != nil {
		panic(err)
	}
	fmt.Printf("reserved circuit %s: %v along %v\n", c.ID, c.Rate, c.Path)

	var res *rdma.Result
	rdma.Transfer(b.RemoteCluster[0].Host, b.Cluster[0].Host, 4791, 2*units.GB,
		rdma.Options{Rate: 8500 * units.Mbps}, func(r *rdma.Result) { res = r })
	b.Net.RunFor(10 * time.Second)

	fmt.Printf("RoCE on circuit: %v in %v = %.1f Gbps\n",
		res.Size, res.Duration().Round(time.Millisecond), float64(res.Throughput())/1e9)
	fmt.Printf("CPU cost: RoCE %.2f core-s vs TCP %.2f core-s (%.0fx less)\n",
		res.CPUSeconds, res.TCPCPUSeconds, res.TCPCPUSeconds/res.CPUSeconds)
	c.Release()
	fmt.Println("circuit released")
	if err := ctx.Audit(); err != nil {
		fmt.Fprintln(os.Stderr, "invariant violated:", err)
		os.Exit(1)
	}
}
