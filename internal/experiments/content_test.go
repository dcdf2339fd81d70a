package experiments

import (
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/units"
)

// TestTier2 runs the content-caching sweep at its default shape and pins
// the acceptance claim: at classic Zipf popularity a DMZ cache holding
// 10% of the catalog removes at least half the WAN egress. The rendered
// table is golden-pinned byte-for-byte.
func TestTier2(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run content sweep; skipped in -short")
	}
	res := Tier2(runCtx(t), Tier2Config{})
	out := res.Render()
	if !res.Pass() {
		t.Fatalf("tier2 runs incomplete or audit-dirty:\n%s", out)
	}
	red, ok := res.ReductionAt(1.0)
	if !ok {
		t.Fatalf("no cached cell at skew 1.0:\n%s", out)
	}
	if red < 0.5 {
		t.Errorf("WAN egress reduction at Zipf 1.0 is %.1f%%, want ≥50%%:\n%s", 100*red, out)
	}
	checkGolden(t, "tier2.txt", out)
}

// TestCacheSeriesAfterLateAttach: the topology builds its content cache
// before the run context attaches telemetry, and the cache's series
// still reach the snapshots that psdash -live -cache reads.
func TestCacheSeriesAfterLateAttach(t *testing.T) {
	cat := content.Uniform("ds", 20, units.MB, 256*units.KB)
	t2 := topo.NewTier2(21, topo.Tier2Config{Catalog: cat, Readers: 4, CacheBudget: 4 * units.MB})
	ctx := runCtx(t)
	ctx.Telemetry = telemetry.New()
	ctx.Telemetry.SampleInterval = 100 * time.Millisecond
	ctx.Adopt("tier2", t2.Net)
	content.NewPopulation(t2.Readers, content.PopulationConfig{
		Origin: t2.OriginHost.Name(), Catalog: cat, PullsPerReader: 5, Skew: 1, Seed: 1,
	})
	t2.Net.RunFor(2 * time.Second)

	snaps := ctx.Telemetry.Snapshots
	if len(snaps) == 0 {
		t.Fatal("the telemetry plane took no snapshots")
	}
	hits, ok := snaps[len(snaps)-1].Get("content_cache_hits", telemetry.Labels{"cache": "dmz-sw"})
	if !ok {
		t.Fatal(`content_cache_hits{cache="dmz-sw"} missing from the snapshot`)
	}
	if hits.Value == 0 || t2.Cache.Hits == 0 {
		t.Errorf("no cache hits in the series (%v) or the cache (%d) after repeat pulls", hits.Value, t2.Cache.Hits)
	}
}
