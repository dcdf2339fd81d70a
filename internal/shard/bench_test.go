package shard

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dtn"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/units"
)

// benchTransfer runs one Figure-3-shaped GridFTP transfer over a simple
// DMZ topology at the given shard count, returning the event count so
// rates can be reported.
func benchTransfer(shards int) uint64 {
	d := topo.NewSimpleDMZ(11, topo.SimpleDMZConfig{})
	if _, err := Install(d.Net, shards); err != nil {
		panic(err)
	}
	dtn.GridFTP{Streams: 4}.Start(d.RemoteDTN, d.DTN, 32*units.MB, nil)
	d.Net.RunFor(2 * time.Second)
	var total uint64
	for _, s := range d.Net.Schedulers() {
		total += s.Processed
	}
	return total
}

// BenchmarkEngineShards measures the sharded engine end to end — topology
// build, partition, barrier-window run loop — at shard counts 1, 2, and
// 4. Every variant executes the same logical transfer; EventRate in
// events/sec is reported as a custom metric. On a single-CPU runner the multi-shard variants measure pure
// synchronization overhead (the worker goroutines time-slice one core);
// on multi-core hardware they measure actual speedup.
func BenchmarkEngineShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var events uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				events = benchTransfer(shards)
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkFig1Sharded is the macro number: the paper's Figure 1 sweep
// (quick axis) through the experiment harness at each shard count. Run
// with -benchtime 1x — one iteration is a full multi-second simulated
// sweep, and its rendered output is already proven shard-count-invariant
// by TestEquivalenceFig1.
func BenchmarkFig1Sharded(b *testing.B) {
	cfg := experiments.Fig1Config{
		RTTs:     []time.Duration{4 * time.Millisecond, 20 * time.Millisecond},
		Duration: 2 * time.Second,
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				experiments.Fig1(&harness.Ctx{Shards: shards, Parallel: 1}, cfg)
			}
		})
	}
}

// BenchmarkEngineWindow isolates the barrier machinery: a two-domain
// topology exchanging a steady trickle of cross-cut packets, so almost
// every window is synchronization (drain, control, merge) rather than
// intra-shard event work. ns/op here bounds the per-window cost.
func BenchmarkEngineWindow(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := netsim.New(3)
				a := n.NewHost("a")
				z := n.NewHost("z")
				n.Connect(a, z, netsim.LinkConfig{
					Rate:  10 * units.Gbps,
					Delay: time.Millisecond,
				}).MarkCut()
				n.ComputeRoutes()
				z.Bind(netsim.ProtoTCP, 7000, netsim.HandlerFunc(func(pkt *netsim.Packet) {}))
				eng, err := Install(n, shards)
				if err != nil {
					b.Fatal(err)
				}
				n.Sched.Every(time.Millisecond, func() {
					pkt := a.NewPacket()
					pkt.Flow = netsim.FlowKey{Src: "a", Dst: "z", Proto: netsim.ProtoTCP, DstPort: 7000}
					pkt.Size = 1500
					a.Send(pkt)
				})
				n.RunFor(time.Second)
				if eng.Windows == 0 {
					b.Fatal("no windows executed")
				}
			}
		})
	}
}
