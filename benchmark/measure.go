package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// eventTags are the scheduler component tags the layers register
// (sim.TagFor); "untagged" is everything scheduled without one.
var eventTags = []string{
	"netsim.port", "netsim.link", "netsim.device",
	"tcp.sender", "tcp.receiver",
	"firewall", "fluid", "content", "untagged",
}

// counts is the simulated work one run did, read from the layers'
// public counters after the run. Every field is deterministic for a
// workload and seed.
type counts struct {
	events    uint64
	tagEvents map[string]uint64
	simEnd    sim.Time
	windows   uint64
	ledger    netsim.Conservation

	packets, txBytes, rxPackets, rxBytes, queueDrops, queueDropBytes uint64

	tcpRetransmits uint64

	fwInspected, fwBufferDrops, fwSessions uint64

	contentLookups, contentEvictions, contentAggregated, wanEgress uint64
	contentHitRatio                                                float64

	fluidTicks uint64

	outcomes []string // workload model outcomes, in a fixed order
}

// tcpEvents is the scheduler work the tcp layer owns.
func (c *counts) tcpEvents() uint64 { return c.tagEvents["tcp.sender"] + c.tagEvents["tcp.receiver"] }

// collectCounts reads every layer counter of a finished run.
func collectCounts(inst *instance) (*counts, []string) {
	n := inst.net
	c := &counts{tagEvents: make(map[string]uint64), simEnd: n.Now(), ledger: n.Conservation()}
	scheds := append([]*sim.Scheduler{n.Sched}, n.ShardSchedulers()...)
	var tagged uint64
	for _, s := range scheds {
		c.events += s.Processed
		for _, tc := range s.EventCounts() {
			c.tagEvents[tc.Tag] += tc.Count
			tagged += tc.Count
		}
	}
	c.tagEvents["untagged"] = c.events - tagged
	if inst.engine != nil {
		c.windows = inst.engine.Windows
	}
	for _, name := range n.NodeNames() {
		for _, p := range n.Node(name).Ports() {
			pc := p.Counters
			c.packets += pc.TxPackets
			c.txBytes += uint64(pc.TxBytes)
			c.rxPackets += pc.RxPackets
			c.rxBytes += uint64(pc.RxBytes)
			c.queueDrops += pc.QueueDrops
			c.queueDropBytes += uint64(pc.QueueDropBytes)
		}
	}
	if fw := inst.fw; fw != nil {
		c.fwInspected = fw.Stats.Inspected
		c.fwBufferDrops = fw.Stats.BufferDrops
		c.fwSessions = uint64(fw.Stats.Sessions)
	}
	if t2 := inst.tier2; t2 != nil && t2.Cache != nil {
		c.contentLookups = t2.Cache.Lookups()
		c.contentHitRatio = t2.Cache.HitRatio()
		c.contentEvictions = t2.Cache.Store().Evictions
		c.contentAggregated = t2.Cache.Aggregated
		c.wanEgress = uint64(t2.WANEgressBytes())
	}
	if inst.fluid != nil {
		c.fluidTicks = inst.fluid.Ticks()
	}
	var fails []string
	c.outcomes, c.tcpRetransmits, fails = inst.model()
	return c, fails
}

// digest is a fingerprint of everything the simulation computed: event
// counts, the conservation ledger, summed port counters and the model
// outcomes. It must not change between runs of one workload and seed.
func (c *counts) digest() string {
	h := fnv.New64a()
	for _, line := range c.digestLines() {
		fmt.Fprintln(h, line)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func (c *counts) digestLines() []string {
	tags := make([]string, 0, len(c.tagEvents))
	for t := range c.tagEvents {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	var ev strings.Builder
	for _, t := range tags {
		fmt.Fprintf(&ev, " %s=%d", t, c.tagEvents[t])
	}
	lines := []string{
		fmt.Sprintf("events=%d end=%d%s", c.events, c.simEnd, ev.String()),
		"ledger " + c.ledger.String(),
		fmt.Sprintf("ports tx=%d/%dB rx=%d/%dB qdrop=%d/%dB",
			c.packets, c.txBytes, c.rxPackets, c.rxBytes, c.queueDrops, c.queueDropBytes),
	}
	return append(lines, c.outcomes...)
}

// rep is one run of a workload: set-up, run phase, audit.
type rep struct {
	seed                         int64
	setupS, wallS, cpuS, gcS     float64
	allocs, allocBytes, heapLive uint64
	gcCycles                     uint32
	counts                       *counts
	failures                     []string
}

// runRep builds and runs one workload instance. tr is nil for untraced
// runs. The caller collects garbage first, so every run starts from the
// same heap.
func runRep(w *workload, seed int64, tr *tracer) rep {
	r := rep{seed: seed}
	tr.beginRep()
	defer tr.endRep()

	t0 := time.Now()
	inst, err := w.setup(seed, tr)
	r.setupS = time.Since(t0).Seconds()
	if err != nil {
		r.failures = []string{"setup: " + err.Error()}
		return r
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, gc0 := cpuSeconds(), gcCPUSeconds()
	t1 := time.Now()
	complete := drive(inst, w.horizon, tr)
	r.wallS = time.Since(t1).Seconds()
	r.cpuS, r.gcS = cpuSeconds()-cpu0, gcCPUSeconds()-gc0
	runtime.ReadMemStats(&after)
	r.allocs = after.Mallocs - before.Mallocs
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.gcCycles = after.NumGC - before.NumGC

	var audit []string
	tr.span("audit", func() {
		for _, e := range inst.net.AuditInvariants() {
			audit = append(audit, "audit: "+e.Error())
		}
		if c := inst.net.Conservation(); !c.Balanced() {
			audit = append(audit, "audit: conservation: "+c.String())
		}
	})
	var shape []string
	r.counts, shape = collectCounts(inst)
	r.failures = runFailures(complete, audit, shape)

	if tr == nil {
		// A traced run skips the forced collection: its mark work
		// would be charged to the runtime layer.
		runtime.GC()
		var live runtime.MemStats
		runtime.ReadMemStats(&live)
		r.heapLive = live.HeapAlloc
	}
	runtime.KeepAlive(inst)
	return r
}

// drive advances the network one slice at a time until the workload
// completes or its simulated-time horizon passes.
func drive(inst *instance, horizon time.Duration, tr *tracer) bool {
	for !inst.done() {
		if inst.net.Now().Duration() >= horizon {
			return false
		}
		tr.span("run", func() { inst.net.RunFor(slice) })
		tr.samplePending(inst.net)
	}
	return true
}

// runFailures is the per-run part of the failed-run rule: a run fails
// when the workload did not complete, the conservation audit reported
// an error, or a model-shape check is out of its margin.
func runFailures(complete bool, audit, shape []string) []string {
	var out []string
	if !complete {
		out = append(out, "workload did not complete")
	}
	out = append(out, audit...)
	return append(out, shape...)
}

// digestFailure is the cross-run part of the failed-run rule: a run
// fails when its digest differs from the first run of the same seed.
func digestFailure(first, got string) []string {
	if first == "" || got == first {
		return nil
	}
	return []string{fmt.Sprintf("digest %s differs from the first run's %s", got, first)}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
