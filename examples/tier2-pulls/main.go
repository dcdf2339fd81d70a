// Tier-2 dataset pulls: in-network content caching on the Science DMZ
// read path.
//
// An LHC-style Tier-1 DTN serves a catalog of named, chunked datasets
// across the WAN. A Tier-2 site's reader population repeatedly pulls
// hot datasets through its Science DMZ, with popularity following a
// Zipf law. The sweep runs each popularity skew twice — once bare, once
// with a byte-budgeted LRU content store on the DMZ switch (with
// PIT-style request aggregation) — and measures the WAN egress the
// cache keeps off the cut link.
//
// Run with: go run ./examples/tier2-pulls
//
// The headline acceptance claim is checked on exit: at classic Zipf
// (skew 1.0) a cache holding 10% of the catalog must remove at least
// half the WAN egress. Output is byte-identical at any -shards value.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/harness"
)

func main() {
	shards := flag.Int("shards", 1, "run the simulated network on N parallel shards; output is byte-identical at any N")
	flag.Parse()

	ctx := &harness.Ctx{Shards: *shards}
	res := experiments.Tier2(ctx, experiments.Tier2Config{})
	fmt.Print(res.Render())
	if err := ctx.Audit(); err != nil {
		fmt.Fprintln(os.Stderr, "invariant violated:", err)
		os.Exit(1)
	}

	if !res.Pass() {
		fmt.Println("FAIL: a run did not finish its workload or did not audit clean")
		os.Exit(1)
	}
	red, ok := res.ReductionAt(1.0)
	if !ok {
		fmt.Println("FAIL: no cached run at Zipf 1.0")
		os.Exit(1)
	}
	if red < 0.5 {
		fmt.Printf("FAIL: WAN egress reduction at Zipf 1.0 is %.1f%%, want >=50%%\n", 100*red)
		os.Exit(1)
	}
	fmt.Printf("\nacceptance: WAN egress reduction at Zipf 1.0 with a 10%% cache: %.1f%% (>=50%%)\n", 100*red)
}
