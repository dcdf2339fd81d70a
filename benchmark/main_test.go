package main

import (
	"bytes"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "dmz-bulk", "--trace", "2"},
		{"--workload", "dmz-bulk", "--seconds", "0"},
		{"--workload", "dmz-bulk", "--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no result", args, code, stdout.String())
		}
	}
}

func TestInstanceSeeds(t *testing.T) {
	a, b := newSeries(workloads[0], 1, nil), newSeries(workloads[0], 2, nil)
	seen := make(map[int64]bool)
	for _, s := range append(a.seeds, b.seeds...) {
		if seen[s] {
			t.Fatalf("instance seed %d shared between --seed 1 and 2: %v %v", s, a.seeds, b.seeds)
		}
		seen[s] = true
	}
	if len(a.seeds) != instances {
		t.Errorf("%d instance seeds, want %d", len(a.seeds), instances)
	}
}

func TestPerInstance(t *testing.T) {
	reps := []rep{
		{seed: 1, wallS: 1}, {seed: 2, wallS: 10},
		{seed: 1, wallS: 3}, {seed: 2, wallS: 20},
		{seed: 1, wallS: 2},
	}
	// Seed 1's median is 2, seed 2's is 15; their mean is 8.5.
	if got := perInstance(reps, func(r rep) float64 { return r.wallS }); got != 8.5 {
		t.Errorf("perInstance = %v, want 8.5", got)
	}
	if got := perInstance(nil, func(r rep) float64 { return r.wallS }); got != 0 {
		t.Errorf("perInstance of no runs = %v", got)
	}
}
