package main

import (
	"fmt"
	"time"

	"repro/internal/content"
	"repro/internal/dtn"
	"repro/internal/firewall"
	"repro/internal/flowgen"
	"repro/internal/fluid"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/units"
)

// Workload sizes. Each is one batch job; see README.md for why each
// workload exists and which layers it loads.
const (
	bulkBytes   = 3 * units.GB // dmz-bulk GridFTP transfer
	bulkStreams = 8
	bulkLoss    = 1e-5 // random loss on the 10G/25 ms WAN

	campusHorizon  = 5 * time.Second // simulated run length of campus-firewall
	campusMiceStop = 4 * time.Second // mice arrivals end here so started mice can finish
	campusMiceRate = 600             // business mice per second through the firewall
	campusFluidN   = 100000          // fluid background population

	tier2Readers = 32
	tier2Pulls   = 200 // Zipf(1.0) pulls per reader
	tier2Budget  = 0.10
)

// Model-shape margins. They bound what the simulated network must show,
// independent of exact event order, so a change that only makes the
// simulator faster provably leaves the science alone.
const (
	dmzMinGoodput    = 2 * units.Gbps   // the science path runs well above the campus elephant
	campusMaxGoodput = 500 * units.Mbps // the firewalled elephant is capped far below dmz-bulk
	miceMinCompleted = 0.95             // share of started business mice that complete
	tier2MinOffWAN   = 0.50             // share of requested bytes kept off the WAN
)

// slice is the simulated time advanced per Network.RunFor call; the
// benchmark checks completion between slices.
const slice = 100 * time.Millisecond

// workload is one benchmark scenario, built from the layers' public
// constructors and run to completion one slice at a time.
type workload struct {
	name    string
	shards  int
	horizon time.Duration // simulated-time bound; a run not done by then fails
	// build makes the topology and its routes for a seed. The instance
	// it returns starts its generators once the shard plan is in place.
	build func(seed int64) *instance
}

// instance is one built scenario.
type instance struct {
	net    *netsim.Network
	engine *shard.Engine

	fw    *firewall.Firewall // nil when the topology has none
	tier2 *topo.Tier2        // nil outside tier2-cache
	fluid *fluid.Engine      // nil when no fluid background runs

	// start launches the generators and sets done and model.
	start func() error
	done  func() bool
	// model reads the workload's outcomes after the run: the lines that
	// enter the digest, the elephant retransmits, and any shape-check
	// failures.
	model func() (outcomes []string, retransmits uint64, failures []string)
}

var workloads = []*workload{
	{name: "dmz-bulk", shards: 2, horizon: 60 * time.Second, build: buildDMZBulk},
	{name: "campus-firewall", shards: 1, horizon: campusHorizon, build: buildCampus},
	{name: "tier2-cache", shards: 1, horizon: 60 * time.Second, build: buildTier2},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// setup builds the scenario for a seed, installs its shard plan and
// starts its generators, each step inside its own span.
func (w *workload) setup(seed int64, tr *tracer) (*instance, error) {
	var inst *instance
	tr.span("build", func() { inst = w.build(seed) })
	var err error
	tr.span("install", func() { inst.engine, err = shard.Install(inst.net, w.shards) })
	if err != nil {
		return nil, fmt.Errorf("install %d shards: %w", w.shards, err)
	}
	tr.span("start", func() { err = inst.start() })
	if err != nil {
		return nil, fmt.Errorf("start generators: %w", err)
	}
	return inst, nil
}

// buildDMZBulk: an 8-stream GridFTP transfer from the remote DTN to the
// DMZ DTN over a lossy 10G WAN, the science path that avoids the
// firewall.
func buildDMZBulk(seed int64) *instance {
	d := topo.NewSimpleDMZ(seed, topo.SimpleDMZConfig{
		WAN: topo.WANConfig{Loss: netsim.RandomLoss{P: bulkLoss}},
	})
	inst := &instance{net: d.Net, fw: d.Firewall}
	inst.start = func() error {
		xfer := dtn.GridFTP{Streams: bulkStreams}.Start(d.RemoteDTN, d.DTN, bulkBytes, nil)
		inst.done = func() bool { return xfer.Result().Done }
		inst.model = func() ([]string, uint64, []string) {
			res := xfer.Result()
			var retx uint64
			out := []string{fmt.Sprintf("transfer done=%v end=%d goodput=%v", res.Done, res.End, res.Throughput())}
			for _, st := range res.PerStream {
				retx += uint64(st.Retransmits)
				out = append(out, fmt.Sprintf("stream %v acked=%d retx=%d rto=%d end=%d",
					st.Flow, st.BytesAcked, st.Retransmits, st.RTOs, st.End))
			}
			var fails []string
			if !res.Done {
				fails = append(fails, "shape: transfer did not complete")
			}
			if n := d.Firewall.Stats.Inspected; n != 0 {
				fails = append(fails, fmt.Sprintf("shape: science path crossed the firewall (%d inspections)", n))
			}
			if g := res.Throughput(); g < dmzMinGoodput {
				fails = append(fails, fmt.Sprintf("shape: DMZ goodput %v below %v", g, dmzMinGoodput))
			}
			return out, retx, fails
		}
		return nil
	}
	return inst
}

// buildCampus: the general-purpose campus with a tuned elephant pulled
// through the firewall, packet-level business mice and a fluid business
// background leaving through the same firewall.
func buildCampus(seed int64) *instance {
	c := topo.NewCampus(seed, topo.CampusConfig{ScienceTuned: true})
	inst := &instance{net: c.Net, fw: c.Firewall}
	inst.start = func() error {
		srv := tcp.NewServer(c.ScienceHost.Host, dtn.DefaultDataPort, c.ScienceHost.Tuning)
		eleph := tcp.Dial(c.RemoteDTN.Host, srv, -1, c.RemoteDTN.Tuning, nil)
		mice := flowgen.StartBusiness(c.RemoteDTN.Host, c.OfficeHosts, flowgen.Business{
			Name:           "mice",
			FlowsPerSecond: campusMiceRate,
		}, seed)
		c.Net.Sched.At(sim.Time(campusMiceStop), mice.Stop)
		inst.fluid = fluid.New(c.Net, fluid.Config{})
		if _, err := flowgen.StartBusinessFluid(inst.fluid, c.RemoteDTN.Host, c.OfficeHosts, flowgen.BusinessFluid{
			Name:           "background",
			FlowsPerSecond: campusFluidN / campusHorizon.Seconds(),
			MeanSize:       25 * units.KB,
			Flows:          campusFluidN / 25,
		}); err != nil {
			return err
		}
		inst.fluid.Start()
		inst.done = func() bool { return c.Net.Now().Duration() >= campusHorizon }
		inst.model = func() ([]string, uint64, []string) {
			st := eleph.Stats()
			fw := c.Firewall.Stats
			out := []string{
				fmt.Sprintf("elephant acked=%d retx=%d rto=%d goodput=%v", st.BytesAcked, st.Retransmits, st.RTOs, st.Throughput()),
				fmt.Sprintf("mice started=%d completed=%d bytes=%d", mice.Started, mice.Completed, mice.Bytes),
				fmt.Sprintf("firewall inspected=%d bufdrops=%d sessions=%d", fw.Inspected, fw.BufferDrops, fw.Sessions),
			}
			for _, a := range inst.fluid.Aggregates() {
				out = append(out, fmt.Sprintf("fluid %s offered=%d delivered=%d", a.Name(), a.OfferedBytes(), a.DeliveredBytes()))
			}
			var fails []string
			if fw.BufferDrops == 0 {
				fails = append(fails, "shape: firewall dropped nothing")
			}
			if g := st.Throughput(); g > campusMaxGoodput {
				fails = append(fails, fmt.Sprintf("shape: campus elephant %v above %v", g, campusMaxGoodput))
			}
			if mice.Started == 0 || float64(mice.Completed) < miceMinCompleted*float64(mice.Started) {
				fails = append(fails, fmt.Sprintf("shape: %d of %d mice completed", mice.Completed, mice.Started))
			}
			return out, uint64(st.Retransmits), fails
		}
		return nil
	}
	return inst
}

// buildTier2: Zipf(1.0) dataset pulls by many readers through a
// DMZ-switch content cache holding a tenth of the catalog.
func buildTier2(seed int64) *instance {
	cat := content.Uniform("ds", 240, units.MB, 256*units.KB)
	t2 := topo.NewTier2(seed, topo.Tier2Config{
		Catalog:     cat,
		Readers:     tier2Readers,
		CacheBudget: units.ByteSize(tier2Budget * float64(cat.TotalBytes)),
	})
	inst := &instance{net: t2.Net, tier2: t2}
	inst.start = func() error {
		pop := content.NewPopulation(t2.Readers, content.PopulationConfig{
			Origin:         t2.OriginHost.Name(),
			Catalog:        cat,
			PullsPerReader: tier2Pulls,
			Skew:           1.0,
			Seed:           seed,
		})
		inst.done = pop.Done
		inst.model = func() ([]string, uint64, []string) {
			cached, origin, bytes := pop.ChunksServed()
			egress := t2.WANEgressBytes()
			out := []string{
				fmt.Sprintf("pulls done=%v chunks cached=%d origin=%d bytes=%d", pop.Done(), cached, origin, bytes),
				fmt.Sprintf("wan egress=%d", egress),
			}
			var fails []string
			if !pop.Done() {
				fails = append(fails, "shape: not every pull completed")
			}
			if off := 1 - float64(egress)/float64(bytes); bytes == 0 || off < tier2MinOffWAN {
				fails = append(fails, fmt.Sprintf("shape: %.3f of requested bytes kept off the WAN, want >= %.2f", off, tier2MinOffWAN))
			}
			return out, 0, fails
		}
		return nil
	}
	return inst
}
