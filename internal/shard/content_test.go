package shard

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/content"
	"repro/internal/topo"
	"repro/internal/units"
)

// TestEquivalenceContentCache pins the content cache's internal state —
// not just rendered output — across shard counts: hit/miss/eviction
// ledgers, the store's exact MRU order, every consumer's stats, and the
// packet conservation ledger (with the cache's originated/absorbed
// columns) must be byte-identical at shards 1, 2, and 4. The LRU
// recency list mutates only in event order, so any partition leak shows
// up here as a reordered eviction long before it corrupts a report.
func TestEquivalenceContentCache(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run content scenario; skipped in -short")
	}
	got := make(map[int]string)
	for _, n := range equivalenceCounts {
		cat := content.Uniform("ds", 60, units.MB, 256*units.KB)
		t2 := topo.NewTier2(21, topo.Tier2Config{
			Catalog: cat, Readers: 8, CacheBudget: 6 * units.MB,
		})
		runCtx(t, n).Adopt("tier2", t2.Net)
		pop := content.NewPopulation(t2.Readers, content.PopulationConfig{
			Origin: t2.OriginHost.Name(), Catalog: cat,
			PullsPerReader: 10, Skew: 1.0, Seed: 3,
		})
		for t2.Net.Now().Seconds() < 30 && !pop.Done() {
			t2.Net.RunFor(100 * time.Millisecond)
		}

		c := t2.Cache
		out := fmt.Sprintf("done=%v hits=%d hitBytes=%d misses=%d missBytes=%d aggregated=%d aggBytes=%d refetches=%d\n",
			pop.Done(), c.Hits, int64(c.HitBytes), c.Misses, int64(c.MissBytes),
			c.Aggregated, int64(c.AggregatedBytes), c.Refetches)
		s := c.Store()
		out += fmt.Sprintf("store used=%d chunks=%d insertions=%d evictions=%d evictedBytes=%d\n",
			int64(s.UsedBytes()), s.Len(), s.Insertions, s.Evictions, int64(s.EvictedBytes))
		for _, ch := range s.ContentsMRU() {
			out += "mru " + ch.Name() + "\n"
		}
		for _, con := range pop.Consumers {
			st := con.Stats
			out += fmt.Sprintf("%s pulls=%d cached=%d origin=%d bytes=%d retries=%d end=%d\n",
				con.Host().Name(), st.Pulls, st.ChunksCacheServed, st.ChunksOriginServed,
				int64(st.BytesReceived), st.Retries, int64(st.End))
		}
		out += fmt.Sprintf("wan=%d\n", int64(t2.WANEgressBytes()))
		out += t2.Net.Conservation().String() + "\n"
		for _, err := range t2.Net.AuditInvariants() {
			out += "AUDIT " + err.Error() + "\n"
		}
		got[n] = out
	}
	requireAllEqual(t, "content cache state", got)
}
