package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestCataloguesValid(t *testing.T) {
	if err := validateDefs(endToEnd); err != nil {
		t.Error(err)
	}
	if err := validateDefs(perLayer); err != nil {
		t.Error(err)
	}
	for _, l := range layers {
		if l == "runtime" {
			continue
		}
		if !hasDef(perLayer, l+".self_s") {
			t.Errorf("layer %s has no self_s metric", l)
		}
	}
	if !hasDef(perLayer, "runtime.self_s") {
		t.Error("no runtime.self_s metric")
	}
}

func hasDef(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

func TestValidateDefsRejects(t *testing.T) {
	long := strings.Repeat("a", 65)
	for _, tc := range []struct {
		defs []metricDef
		why  string
	}{
		{[]metricDef{{"", "s"}}, "empty name"},
		{[]metricDef{{"_wall", "s"}}, "leading underscore"},
		{[]metricDef{{".wall", "s"}}, "leading dot"},
		{[]metricDef{{"wall s", "s"}}, "space"},
		{[]metricDef{{"wall/s", "s"}}, "slash in name"},
		{[]metricDef{{long, "s"}}, "65 characters"},
		{[]metricDef{{"wall_s", ""}}, "empty unit"},
		{[]metricDef{{"wall_s", "seconds per op"}}, "space in unit"},
		{[]metricDef{{"wall_s", "abcdefghijklmnopq"}}, "17-character unit"},
		{[]metricDef{{"wall_s", "s"}, {"wall_s", "ms"}}, "duplicate"},
	} {
		if err := validateDefs(tc.defs); err == nil {
			t.Errorf("%s: %v accepted", tc.why, tc.defs)
		}
	}
	ok := []metricDef{{"a", "s"}, {"9.x-y_z", "1/s"}, {strings.Repeat("b", 64), "%"}}
	if err := validateDefs(ok); err != nil {
		t.Errorf("valid defs rejected: %v", err)
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json and
// the metrics this program emits in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program emits %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestBuildMetrics(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "count"}}
	m, err := buildMetrics(defs, map[string]float64{"a": 1.5, "b": 3})
	if err != nil || m["a"] != (metricValue{1.5, "s"}) || m["b"] != (metricValue{3, "count"}) {
		t.Errorf("buildMetrics = %v, %v", m, err)
	}
	if _, err := buildMetrics(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := buildMetrics(defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

func TestTraceFailures(t *testing.T) {
	clean := func() map[string]float64 {
		m := map[string]float64{"trace.coverage": 0.9}
		for _, d := range perLayer {
			if _, ok := m[d.name]; !ok {
				m[d.name] = 0
			}
		}
		return m
	}
	for _, w := range workloads {
		if got := traceFailures(w.name, clean()); len(got) != 0 {
			t.Errorf("%s: clean trace failed: %v", w.name, got)
		}
	}

	m := clean()
	m["firewall.inspected"] = 12
	if got := traceFailures("dmz-bulk", m); len(got) != 1 || !strings.Contains(got[0], "firewall.inspected") {
		t.Errorf("dmz-bulk with firewall work: %v", got)
	}
	if got := traceFailures("campus-firewall", m); len(got) != 0 {
		t.Errorf("campus-firewall may inspect: %v", got)
	}

	m = clean()
	m["tcp.events"] = 1
	if got := traceFailures("tier2-cache", m); len(got) != 1 {
		t.Errorf("tier2-cache with tcp events: %v", got)
	}

	m = clean()
	m["trace.coverage"] = 0.79
	if got := traceFailures("campus-firewall", m); len(got) != 1 || !strings.Contains(got[0], "coverage") {
		t.Errorf("low coverage: %v", got)
	}
}
