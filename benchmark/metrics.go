package main

import (
	"fmt"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Each is the mean over instance seeds of the median over
// that seed's runs; setup_s is the median over every timed set-up.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"allocs", "count"},
	{"alloc_bytes", "B"},
	{"heap_live_bytes", "B"},
}

// perLayer are the traced run's metrics. Counts are means over instance
// seeds of one run each (they repeat exactly); times are per-run means
// over the traced runs.
var perLayer = func() []metricDef {
	defs := []metricDef{{"sim.events", "count"}}
	for _, t := range eventTags {
		defs = append(defs, metricDef{"sim.events." + t, "count"})
	}
	return append(defs,
		metricDef{"sim.pending_mean", "count"},
		metricDef{"sim.self_s", "s"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"netsim.packets", "count"},
		metricDef{"netsim.queue_drops", "count"},
		metricDef{"netsim.self_s", "s"},
		metricDef{"netsim.ns_per_packet", "ns"},
		metricDef{"tcp.self_s", "s"},
		metricDef{"tcp.retransmits", "count"},
		metricDef{"tcp.events", "count"},
		metricDef{"firewall.inspected", "count"},
		metricDef{"firewall.buffer_drops", "count"},
		metricDef{"firewall.sessions", "count"},
		metricDef{"firewall.self_s", "s"},
		metricDef{"firewall.ns_per_inspect", "ns"},
		metricDef{"content.lookups", "count"},
		metricDef{"content.hit_ratio", "ratio"},
		metricDef{"content.evictions", "count"},
		metricDef{"content.aggregated", "count"},
		metricDef{"content.wan_egress_bytes", "B"},
		metricDef{"content.self_s", "s"},
		metricDef{"fluid.ticks", "count"},
		metricDef{"fluid.self_s", "s"},
		metricDef{"fluid.us_per_tick", "us"},
		metricDef{"shard.windows", "count"},
		metricDef{"shard.events_per_window", "count"},
		metricDef{"shard.self_s", "s"},
		metricDef{"shard.cpu_util", "ratio"},
		metricDef{"shard.install_s", "s"},
		metricDef{"topo.build_s", "s"},
		metricDef{"topo.self_s", "s"},
		metricDef{"runtime.cpu_s", "s"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_s", "s"},
		metricDef{"runtime.self_s", "s"},
		metricDef{"other.self_s", "s"},
		metricDef{"trace.coverage", "ratio"},
		metricDef{"trace.overhead", "ratio"},
	)
}()

// bypassed lists, per workload, the layer work counts that must be zero
// because the workload never reaches that layer.
var bypassed = map[string][]string{
	"dmz-bulk": {"firewall.inspected", "sim.events.firewall",
		"content.lookups", "sim.events.content", "fluid.ticks", "sim.events.fluid"},
	"campus-firewall": {"content.lookups", "sim.events.content"},
	"tier2-cache": {"tcp.events", "tcp.retransmits", "firewall.inspected", "sim.events.firewall",
		"fluid.ticks", "sim.events.fluid"},
}

// minCoverage is the least share of traced CPU time the layer breakdown
// must explain.
const minCoverage = 0.8

// traceFailures checks a traced run's per-layer metrics: bypassed layers
// did no work, and the layers account for enough CPU time.
func traceFailures(workload string, values map[string]float64) []string {
	var out []string
	for _, name := range bypassed[workload] {
		if v := values[name]; v != 0 {
			out = append(out, fmt.Sprintf("bypass: %s = %v on %s, want 0", name, v, workload))
		}
	}
	if c := values["trace.coverage"]; c < minCoverage {
		out = append(out, fmt.Sprintf("trace: coverage %.3f below %.2f", c, minCoverage))
	}
	return out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks metric names and units against the result
// schema: names start with a letter or digit, hold at most 64 letters,
// digits, '_', '.' and '-', and are used once; units hold at most 16
// letters, digits, '_', '/', '%', '.' and '-'.
func validateDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			return fmt.Errorf("metric name %q is not valid", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			return fmt.Errorf("metric %s: unit %q is not valid", d.name, d.unit)
		}
		if seen[d.name] {
			return fmt.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildMetrics attaches units to values and checks the value set is
// exactly the catalogue.
func buildMetrics(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return out, nil
}
