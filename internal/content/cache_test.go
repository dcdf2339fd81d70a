package content

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/units"
)

// miniSite is a one-switch content path: readers — sw(cache) — origin.
type miniSite struct {
	net     *netsim.Network
	origin  *Origin
	sw      *netsim.Device
	readers []*netsim.Host
	cache   *Cache
}

// buildMini builds the site; its network's invariants are audited when
// the test ends.
func buildMini(t *testing.T, readers int, cat *Catalog, cfg CacheConfig, withCache bool) *miniSite {
	t.Helper()
	n := netsim.New(11)
	t.Cleanup(func() { audit(t, n) })
	o := n.NewHost("origin")
	sw := n.NewDevice("sw", netsim.DeviceConfig{EgressBuffer: 16 * units.MB})
	fast := netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 100 * time.Microsecond, MTU: 9000}
	n.Connect(o, sw, fast)
	m := &miniSite{net: n, sw: sw}
	for i := 0; i < readers; i++ {
		h := n.NewHost("r" + string(rune('0'+i)))
		n.Connect(h, sw, fast)
		m.readers = append(m.readers, h)
	}
	n.ComputeRoutes()
	m.origin = NewOrigin(o, cat)
	if withCache {
		m.cache = NewCache(sw, cfg)
	}
	return m
}

func audit(t *testing.T, n *netsim.Network) {
	t.Helper()
	for _, err := range n.AuditInvariants() {
		t.Errorf("audit: %v", err)
	}
	if c := n.Conservation(); !c.Balanced() {
		t.Errorf("conservation: %v", c)
	}
}

// TestCacheSecondPullHits is the basic promise: a repeat pull of the
// same dataset is served entirely from the switch store, marked
// FlagCached, and the origin never sees the repeat interests.
func TestCacheSecondPullHits(t *testing.T) {
	cat := Uniform("hot", 1, 512*units.KB, 128*units.KB)
	ds := cat.Datasets[0]
	m := buildMini(t, 1, cat, CacheConfig{Budget: ds.Bytes}, true)

	c := NewConsumer(m.readers[0], ConsumerConfig{
		Origin: "origin", Catalog: cat, Pulls: []*Dataset{ds, ds},
	})
	m.net.Run()

	if !c.Stats.Done {
		t.Fatal("consumer did not finish")
	}
	chunks := len(ds.Chunks)
	if c.Stats.ChunksOriginServed != chunks || c.Stats.ChunksCacheServed != chunks {
		t.Fatalf("served split: origin %d, cache %d, want %d each",
			c.Stats.ChunksOriginServed, c.Stats.ChunksCacheServed, chunks)
	}
	if c.Stats.BytesReceived != 2*ds.Bytes {
		t.Fatalf("bytes received %v, want %v", c.Stats.BytesReceived, 2*ds.Bytes)
	}
	if m.cache.Hits != uint64(chunks) || m.cache.Misses != uint64(chunks) {
		t.Fatalf("cache hits=%d misses=%d, want %d each", m.cache.Hits, m.cache.Misses, chunks)
	}
	if m.cache.HitBytes != ds.Bytes {
		t.Fatalf("hit bytes %v, want %v", m.cache.HitBytes, ds.Bytes)
	}
	if m.origin.Served != uint64(chunks) {
		t.Fatalf("origin served %d interests, want %d (repeat pull must not reach it)",
			m.origin.Served, chunks)
	}
	if got := m.cache.Store().Len(); got != chunks {
		t.Fatalf("store holds %d chunks, want %d", got, chunks)
	}
	if c.Stats.Retries != 0 {
		t.Fatalf("clean path retried %d times", c.Stats.Retries)
	}
	cons := m.net.Conservation()
	if cons.Originated == 0 || cons.Absorbed == 0 {
		t.Fatalf("cache should originate and absorb: %v", cons)
	}
}

// TestCacheAggregation collapses concurrent misses: two readers pulling
// the same cold dataset at the same instant cost the origin one fetch.
func TestCacheAggregation(t *testing.T) {
	cat := Uniform("hot", 1, 512*units.KB, 128*units.KB)
	ds := cat.Datasets[0]
	m := buildMini(t, 2, cat, CacheConfig{Budget: ds.Bytes, Aggregate: true}, true)

	var cs []*Consumer
	for _, h := range m.readers {
		cs = append(cs, NewConsumer(h, ConsumerConfig{
			Origin: "origin", Catalog: cat, Pulls: []*Dataset{ds},
		}))
	}
	m.net.Run()

	chunks := len(ds.Chunks)
	for i, c := range cs {
		if !c.Stats.Done || c.Stats.BytesReceived != ds.Bytes {
			t.Fatalf("reader %d: done=%v bytes=%v", i, c.Stats.Done, c.Stats.BytesReceived)
		}
	}
	if m.origin.Served != uint64(chunks) {
		t.Fatalf("origin served %d interests for %d chunks; aggregation leaked upstream",
			m.origin.Served, chunks)
	}
	if m.cache.Aggregated != uint64(chunks) {
		t.Fatalf("aggregated %d interests, want %d", m.cache.Aggregated, chunks)
	}
	if m.cache.AggregatedBytes != ds.Bytes {
		t.Fatalf("aggregated bytes %v, want %v", m.cache.AggregatedBytes, ds.Bytes)
	}
	cached, origin, _ := (&Population{Consumers: cs}).ChunksServed()
	if cached+origin != 2*chunks {
		t.Fatalf("classified %d+%d chunks, want %d", cached, origin, 2*chunks)
	}
}

// TestCacheZeroBudget is the ablation: with no store bytes every lookup
// misses, nothing is admitted, and the origin serves everything — but
// the read path still completes and the ledger still closes.
func TestCacheZeroBudget(t *testing.T) {
	cat := Uniform("hot", 1, 256*units.KB, 128*units.KB)
	ds := cat.Datasets[0]
	m := buildMini(t, 1, cat, CacheConfig{Budget: 0}, true)

	c := NewConsumer(m.readers[0], ConsumerConfig{
		Origin: "origin", Catalog: cat, Pulls: []*Dataset{ds, ds},
	})
	m.net.Run()

	if !c.Stats.Done {
		t.Fatal("consumer did not finish")
	}
	if m.cache.Hits != 0 || m.cache.Store().Len() != 0 {
		t.Fatalf("zero-budget cache hit %d / holds %d", m.cache.Hits, m.cache.Store().Len())
	}
	if c.Stats.ChunksCacheServed != 0 {
		t.Fatalf("%d chunks marked cache-served with no cache bytes", c.Stats.ChunksCacheServed)
	}
	if m.origin.Served != uint64(2*len(ds.Chunks)) {
		t.Fatalf("origin served %d, want all %d", m.origin.Served, 2*len(ds.Chunks))
	}
}

// TestCacheAbsent is the true baseline: no interceptor installed at all;
// the content protocol works switch-transparently.
func TestCacheAbsent(t *testing.T) {
	cat := Uniform("hot", 1, 256*units.KB, 128*units.KB)
	ds := cat.Datasets[0]
	m := buildMini(t, 1, cat, CacheConfig{}, false)

	c := NewConsumer(m.readers[0], ConsumerConfig{
		Origin: "origin", Catalog: cat, Pulls: []*Dataset{ds},
	})
	m.net.Run()
	if !c.Stats.Done || c.Stats.ChunksCacheServed != 0 {
		t.Fatalf("done=%v cacheServed=%d", c.Stats.Done, c.Stats.ChunksCacheServed)
	}
	cons := m.net.Conservation()
	if cons.Originated != 0 || cons.Absorbed != 0 {
		t.Fatalf("no cache, yet originated=%d absorbed=%d", cons.Originated, cons.Absorbed)
	}
}

// TestCachePITExpiry drives the pending-interest table with interests
// sent from the readers: an interest after the PIT deadline re-forwards
// upstream (a refetch) instead of joining a fetch presumed lost. The
// origin is unbound, so every forwarded interest dies there and the
// fetch it opened never completes.
func TestCachePITExpiry(t *testing.T) {
	cat := Uniform("hot", 1, 128*units.KB, 128*units.KB)
	chunk := cat.Datasets[0].Chunks[0]
	m := buildMini(t, 2, cat, CacheConfig{
		Budget: units.MB, Aggregate: true, PITTimeout: 10 * time.Millisecond,
	}, true)
	m.origin.Host.Unbind(netsim.ProtoUDP, OriginPort)
	atOrigin := netsim.DropSite{Reason: netsim.DropNoHandler, Node: "origin"}

	// interest sends one interest from the reader and lets it reach the
	// origin, if the cache forwards it.
	interest := func(reader int) {
		h := m.readers[reader]
		p := h.NewPacket()
		p.Flow = netsim.FlowKey{
			Src: h.Name(), Dst: "origin",
			SrcPort: ConsumerPort, DstPort: OriginPort, Proto: netsim.ProtoUDP,
		}
		p.Size = InterestBytes
		p.Payload = chunk
		h.Send(p)
		m.net.RunFor(time.Millisecond)
	}

	// First interest misses and opens a PIT entry; it forwards on.
	interest(0)
	if m.cache.Misses != 1 || m.net.DropStats[atOrigin] != 1 {
		t.Fatalf("first interest: misses %d, reached origin %d; want 1, 1", m.cache.Misses, m.net.DropStats[atOrigin])
	}

	// Concurrent interest from the other reader joins the pending fetch.
	interest(1)
	if m.cache.Aggregated != 1 || m.net.DropStats[atOrigin] != 1 {
		t.Fatalf("concurrent interest: aggregated %d, reached origin %d; want 1, 1", m.cache.Aggregated, m.net.DropStats[atOrigin])
	}

	// Past the deadline the entry is stale: the next interest refetches.
	m.net.RunFor(25 * time.Millisecond)
	interest(0)
	if m.cache.Refetches != 1 || m.net.DropStats[atOrigin] != 2 {
		t.Fatalf("post-expiry interest: refetches %d, reached origin %d; want 1, 2", m.cache.Refetches, m.net.DropStats[atOrigin])
	}
	if m.cache.Misses != 3 || m.cache.Hits != 0 {
		t.Fatalf("misses=%d hits=%d", m.cache.Misses, m.cache.Hits)
	}
}

// TestCacheIgnoresOtherTraffic: non-content UDP and non-UDP packets pass
// the interceptor untouched.
func TestCacheIgnoresOtherTraffic(t *testing.T) {
	cat := Uniform("hot", 1, 128*units.KB, 128*units.KB)
	m := buildMini(t, 1, cat, CacheConfig{Budget: units.MB}, true)

	p := m.sw.NewPacket()
	p.Flow = netsim.FlowKey{Src: "r0", Dst: "origin", SrcPort: 9, DstPort: 9, Proto: netsim.ProtoUDP}
	if !m.cache.Intercept(p, nil) {
		t.Fatal("non-content UDP must pass")
	}
	m.sw.ReleasePacket(p)

	p = m.sw.NewPacket()
	p.Flow = netsim.FlowKey{Src: "r0", Dst: "origin", SrcPort: 1000, DstPort: OriginPort, Proto: netsim.ProtoTCP}
	if !m.cache.Intercept(p, nil) {
		t.Fatal("TCP must pass")
	}
	m.sw.ReleasePacket(p)
	if m.cache.Lookups() != 0 {
		t.Fatalf("non-content traffic counted as %d lookups", m.cache.Lookups())
	}
}
