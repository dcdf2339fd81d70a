package main

import (
	"strings"
	"testing"
)

func TestFailedRunRule(t *testing.T) {
	if got := runFailures(true, nil, nil); len(got) != 0 {
		t.Errorf("a complete, clean run failed: %v", got)
	}
	for _, tc := range []struct {
		why      string
		complete bool
		audit    []string
		shape    []string
		want     int
	}{
		{"incomplete", false, nil, nil, 1},
		{"audit error", true, []string{"audit: packet conservation violated"}, nil, 1},
		{"shape out of margin", true, nil, []string{"shape: firewall dropped nothing"}, 1},
		{"everything wrong", false, []string{"audit: a", "audit: b"}, []string{"shape: c"}, 4},
	} {
		if got := runFailures(tc.complete, tc.audit, tc.shape); len(got) != tc.want {
			t.Errorf("%s: %d failures %v, want %d", tc.why, len(got), got, tc.want)
		}
	}

	if got := digestFailure("", "abc"); got != nil {
		t.Errorf("the first run cannot differ from itself: %v", got)
	}
	if got := digestFailure("abc", "abc"); got != nil {
		t.Errorf("matching digests failed: %v", got)
	}
	if got := digestFailure("abc", "abd"); len(got) != 1 || !strings.Contains(got[0], "abd") {
		t.Errorf("differing digests: %v", got)
	}
}

func TestDigestCoversCounters(t *testing.T) {
	base := func() *counts {
		return &counts{events: 10, tagEvents: map[string]uint64{"netsim.port": 4}, packets: 4, outcomes: []string{"x=1"}}
	}
	ref := base().digest()
	if base().digest() != ref {
		t.Fatal("digest is not a function of the counters")
	}
	for what, mutate := range map[string]func(*counts){
		"events":   func(c *counts) { c.events++ },
		"tag":      func(c *counts) { c.tagEvents["netsim.port"]++ },
		"packets":  func(c *counts) { c.packets++ },
		"ledger":   func(c *counts) { c.ledger.Dropped++ },
		"outcomes": func(c *counts) { c.outcomes[0] = "x=2" },
	} {
		c := base()
		mutate(c)
		if c.digest() == ref {
			t.Errorf("digest ignores %s", what)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{nil, 0},
	} {
		in := append([]float64(nil), tc.in...)
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.in[i] {
				t.Errorf("median reordered its input: %v", tc.in)
			}
		}
	}
}
