package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// countValues are the per-layer metrics that count simulated work; they
// repeat exactly for a seed.
func countValues(c *counts) map[string]float64 {
	v := map[string]float64{
		"sim.events":               float64(c.events),
		"netsim.packets":           float64(c.packets),
		"netsim.queue_drops":       float64(c.queueDrops),
		"tcp.retransmits":          float64(c.tcpRetransmits),
		"tcp.events":               float64(c.tcpEvents()),
		"firewall.inspected":       float64(c.fwInspected),
		"firewall.buffer_drops":    float64(c.fwBufferDrops),
		"firewall.sessions":        float64(c.fwSessions),
		"content.lookups":          float64(c.contentLookups),
		"content.hit_ratio":        c.contentHitRatio,
		"content.evictions":        float64(c.contentEvictions),
		"content.aggregated":       float64(c.contentAggregated),
		"content.wan_egress_bytes": float64(c.wanEgress),
		"fluid.ticks":              float64(c.fluidTicks),
		"shard.windows":            float64(c.windows),
	}
	for _, t := range eventTags {
		v["sim.events."+t] = float64(c.tagEvents[t])
	}
	return v
}

// layerValues derives the per-layer metrics: counts as the mean over
// instance seeds, times per run from the traced runs' profile and
// spans.
func layerValues(s *series, reps, plain []rep, tr *tracer, prof *foldedProfile) map[string]float64 {
	v := countValues(&counts{})
	var seeds int
	for _, seed := range s.seeds {
		if c := s.first[seed]; c != nil {
			seeds++
			for name, x := range countValues(c) {
				v[name] += x
			}
		}
	}
	for name := range v {
		v[name] /= float64(max(seeds, 1))
	}

	n := float64(len(reps))
	self := func(bucket string) float64 { return float64(prof.nanos[bucket]) / 1e9 / n }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	mean := func(f func(rep) float64) float64 {
		var sum float64
		for _, r := range reps {
			sum += f(r)
		}
		return sum / n
	}
	wall := func(r rep) float64 { return r.wallS }

	for _, l := range layers {
		v[l+".self_s"] = self(l)
	}
	v["sim.pending_mean"] = per(tr.pendingSum, float64(tr.pendingN))
	v["sim.ns_per_event"] = per(v["sim.self_s"]*1e9, v["sim.events"])
	v["netsim.ns_per_packet"] = per(v["netsim.self_s"]*1e9, v["netsim.packets"])
	v["firewall.ns_per_inspect"] = per(v["firewall.self_s"]*1e9, v["firewall.inspected"])
	v["fluid.us_per_tick"] = per(v["fluid.self_s"]*1e6, v["fluid.ticks"])
	v["shard.events_per_window"] = per(v["sim.events"], v["shard.windows"])
	v["shard.cpu_util"] = mean(func(r rep) float64 { return per(r.cpuS, r.wallS) }) / float64(s.w.shards)
	v["shard.install_s"] = tr.meanSeconds("install")
	v["topo.build_s"] = tr.meanSeconds("build")
	v["runtime.cpu_s"] = mean(func(r rep) float64 { return r.cpuS })
	v["runtime.gc_cycles"] = mean(func(r rep) float64 { return float64(r.gcCycles) })
	v["runtime.gc_s"] = mean(func(r rep) float64 { return r.gcS })
	v["other.self_s"] = float64(prof.total())/1e9/n - layerSum(prof)/n
	v["trace.coverage"] = prof.coverage()
	v["trace.overhead"] = per(perInstance(reps, wall), perInstance(plain, wall))
	return v
}

// layerSum is the CPU seconds charged to the named layers.
func layerSum(p *foldedProfile) float64 {
	var ns int64
	for _, l := range layers {
		ns += p.nanos[l]
	}
	return float64(ns) / 1e9
}

// writeTrace writes the traced runs' spans, the first traced run's raw
// CPU profile (readable with go tool pprof), the folded profile of all
// traced runs and a per-bucket summary of it.
func writeTrace(dir, stem string, tr *tracer, prof *foldedProfile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	base := filepath.Join(dir, stem)
	var folded bytes.Buffer
	if err := prof.write(&folded); err != nil {
		return err
	}
	var summary strings.Builder
	buckets := make([]string, 0, len(prof.nanos))
	for b := range prof.nanos {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return prof.nanos[buckets[i]] > prof.nanos[buckets[j]] })
	for _, b := range buckets {
		fmt.Fprintf(&summary, "%-10s %8.3fs %6.2f%%\n", b, float64(prof.nanos[b])/1e9,
			100*float64(prof.nanos[b])/float64(prof.total()))
	}
	return errors.Join(
		tr.writeSpans(base+".spans.json"),
		os.WriteFile(base+".cpu.pprof", prof.raw, 0o644),
		os.WriteFile(base+".folded", folded.Bytes(), 0o644),
		os.WriteFile(base+".layers.txt", []byte(summary.String()), 0o644),
	)
}
