package content

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// CacheConfig adjusts a switch-resident content cache.
type CacheConfig struct {
	// Budget is the content store's byte budget. Zero builds a cache
	// that never holds anything (all misses) — useful as an ablation.
	Budget units.ByteSize

	// Aggregate enables PIT-style request aggregation: concurrent
	// misses for the same chunk collapse into one upstream fetch, and
	// the extra requesters are served from the data streaming back.
	Aggregate bool

	// PITTimeout expires a pending fetch: an interest arriving after
	// the deadline re-forwards upstream instead of joining a fetch that
	// may have been lost. Zero defaults to 250 ms (several WAN RTTs).
	PITTimeout time.Duration
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.PITTimeout == 0 {
		c.PITTimeout = 250 * time.Millisecond
	}
	return c
}

// Cache is an in-network content store attached to a Device's
// forwarding path (netsim.Interceptor). It recognizes content-protocol
// packets by their UDP ports:
//
//   - interests (toward OriginPort) are answered from the store on a
//     hit — the interest is absorbed and data segments are originated
//     toward the consumer, marked FlagCached — or forwarded upstream on
//     a miss (possibly collapsed onto a pending fetch via the PIT);
//   - data (from OriginPort) passing back through is observed: waiters
//     registered in the PIT receive originated copies, and a fully seen
//     chunk is inserted into the store.
//
// Every packet the cache consumes is settled through Device.Absorb, and
// every packet it creates enters through Device.Originate, so the
// conservation ledger's originated/absorbed columns close exactly (see
// netsim.Conservation).
type Cache struct {
	dev   *netsim.Device
	store *Store
	cfg   CacheConfig

	pit     map[*Chunk]*pitEntry
	pitFree *pitEntry

	// Hit/miss accounting: counts move with their bytes, never alone
	// (dmzvet ledgerbalance groups).
	Hits      uint64         //dmzvet:ledger cachehit
	HitBytes  units.ByteSize //dmzvet:ledger cachehit
	Misses    uint64         //dmzvet:ledger cachemiss
	MissBytes units.ByteSize //dmzvet:ledger cachemiss

	// Aggregated counts interests collapsed onto a pending upstream
	// fetch; AggregatedBytes the chunk bytes those interests did not
	// re-request across the WAN.
	Aggregated      uint64
	AggregatedBytes units.ByteSize

	// Refetches counts interests that found an expired PIT entry and
	// re-forwarded upstream.
	Refetches uint64
}

// pitEntry tracks one pending upstream fetch.
type pitEntry struct {
	chunk    *Chunk
	expiry   sim.Time
	waiters  []netsim.FlowKey // data-direction flows of aggregated requesters
	got      []uint64         // segment bitmap of data seen streaming back
	gotCount int
	next     *pitEntry // free-list chain
}

// NewCache attaches a content cache to the device and registers its
// metrics collector on the network's telemetry plane (when attached).
// The device must not already have an interceptor.
func NewCache(dev *netsim.Device, cfg CacheConfig) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{
		dev:   dev,
		store: NewStore(cfg.Budget),
		cfg:   cfg,
		pit:   make(map[*Chunk]*pitEntry),
	}
	c.store.onEvict = c.noteEvict
	dev.SetInterceptor(c)
	if t := dev.Network().Telemetry(); t != nil {
		t.Registry.RegisterCollector("content/"+dev.Name(), c.collect)
	}
	return c
}

// Store returns the cache's content store.
func (c *Cache) Store() *Store { return c.store }

// Device returns the switch the cache lives on.
func (c *Cache) Device() *netsim.Device { return c.dev }

// Lookups returns total interest lookups (hits + misses).
func (c *Cache) Lookups() uint64 { return c.Hits + c.Misses }

// HitRatio returns hits / lookups, or 0 before any lookup.
func (c *Cache) HitRatio() float64 {
	if n := c.Lookups(); n > 0 {
		return float64(c.Hits) / float64(n)
	}
	return 0
}

// SavedBytes returns the WAN bytes the cache kept off the upstream
// path: chunk bytes served from the store plus chunk bytes served by
// collapsing aggregated interests onto one fetch.
func (c *Cache) SavedBytes() units.ByteSize { return c.HitBytes + c.AggregatedBytes }

// InterceptorName implements netsim.Interceptor.
func (c *Cache) InterceptorName() string { return "content-cache" }

// Intercept implements netsim.Interceptor: classify content-protocol
// packets and let everything else pass untouched.
//
//dmz:hotpath
func (c *Cache) Intercept(pkt *netsim.Packet, in *netsim.Port) bool {
	if pkt.Flow.Proto != netsim.ProtoUDP {
		return true
	}
	chunk, ok := pkt.Payload.(*Chunk)
	if !ok {
		return true
	}
	switch {
	case pkt.Flow.DstPort == OriginPort:
		return c.interest(pkt, chunk)
	case pkt.Flow.SrcPort == OriginPort:
		return c.data(pkt, chunk)
	}
	return true
}

// interest handles an upstream-bound chunk request. Returns false when
// the cache consumed it.
func (c *Cache) interest(pkt *netsim.Packet, chunk *Chunk) bool {
	if c.store.Get(chunk) {
		c.Hits++
		c.HitBytes += chunk.Bytes
		c.emit(telemetry.EvCacheHit, pkt.Flow, chunk)
		c.serve(pkt.Flow.Reverse(), chunk, 0, chunk.Segs)
		c.dev.Absorb(pkt)
		return false
	}
	c.Misses++
	c.MissBytes += chunk.Bytes
	c.emit(telemetry.EvCacheMiss, pkt.Flow, chunk)

	now := c.dev.Now()
	pe := c.pit[chunk]
	if pe != nil && c.cfg.Aggregate && now < pe.expiry {
		// Collapse onto the pending fetch: remember the requester, and
		// hand it the segments that already streamed past — the cache
		// knows their identities from the PIT bitmap even though it
		// stores no payload.
		dataFlow := pkt.Flow.Reverse()
		pe.waiters = append(pe.waiters, dataFlow)
		c.Aggregated++
		c.AggregatedBytes += chunk.Bytes
		for seg := 0; seg < chunk.Segs; seg++ {
			if bitGet(pe.got, seg) {
				c.serve(dataFlow, chunk, seg, seg+1)
			}
		}
		c.dev.Absorb(pkt)
		return false
	}
	if pe == nil {
		pe = c.newPIT(chunk)
		c.pit[chunk] = pe
	} else if now >= pe.expiry {
		// The fetch this entry tracked is presumed lost; keep the
		// waiters and observed segments, refresh the deadline, and let
		// this interest re-fetch upstream.
		c.Refetches++
	}
	pe.expiry = now.Add(c.cfg.PITTimeout)
	return true
}

// data observes a downstream data segment from the origin. Always lets
// the segment continue to its requester.
func (c *Cache) data(pkt *netsim.Packet, chunk *Chunk) bool {
	pe := c.pit[chunk]
	if pe == nil {
		return true
	}
	seg := int(pkt.Seq)
	if seg < 0 || seg >= chunk.Segs || bitGet(pe.got, seg) {
		return true
	}
	bitSet(pe.got, seg)
	pe.gotCount++
	for _, w := range pe.waiters {
		c.serve(w, chunk, seg, seg+1)
	}
	if pe.gotCount == chunk.Segs {
		c.store.Insert(chunk)
		delete(c.pit, chunk)
		c.freePIT(pe)
	}
	return true
}

// serve originates data segments [from, to) of the chunk toward the
// consumer addressed by the data-direction flow. Cache-served segments
// carry FlagCached so consumers can classify their reads.
func (c *Cache) serve(flow netsim.FlowKey, chunk *Chunk, from, to int) {
	out := c.dev.RouteTo(flow.Dst)
	if out == nil {
		// No route toward the consumer is a topology bug; there is no
		// packet to account yet, so nothing leaks — just stop serving.
		return
	}
	for seg := from; seg < to; seg++ {
		d := c.dev.NewPacket()
		d.Flow = flow
		d.Seq = int64(seg)
		d.Size = chunk.SegBytes(seg)
		d.Flags = netsim.FlagCached
		d.Payload = chunk
		c.dev.Originate(d, out)
	}
}

// newPIT takes a pending-fetch entry from the free list, sized for the
// chunk's segment bitmap.
func (c *Cache) newPIT(chunk *Chunk) *pitEntry {
	words := (chunk.Segs + 63) / 64
	pe := c.pitFree
	if pe == nil {
		//dmzvet:alloc free-list miss: entries are recycled through pitFree once the PIT reaches its peak
		pe = &pitEntry{}
	} else {
		c.pitFree = pe.next
		pe.next = nil
	}
	pe.chunk = chunk
	if cap(pe.got) < words {
		//dmzvet:alloc a recycled entry's bitmap grows only for a chunk with more segments than it ever tracked
		pe.got = make([]uint64, words)
	} else {
		pe.got = pe.got[:words]
		for i := range pe.got {
			pe.got[i] = 0
		}
	}
	pe.gotCount = 0
	pe.waiters = pe.waiters[:0]
	return pe
}

func (c *Cache) freePIT(pe *pitEntry) {
	pe.chunk = nil
	pe.next = c.pitFree
	c.pitFree = pe
}

// noteEvict is the store's eviction observer: trace only, off the
// store's hot path.
func (c *Cache) noteEvict(chunk *Chunk) {
	c.emit(telemetry.EvCacheEvict, netsim.FlowKey{}, chunk)
}

// emit publishes a cache trace event. Guarded cold path: a run without
// a trace bus pays one nil-safe branch, and the flow is rendered only
// after it. The zero FlowKey (an eviction) renders as no flow.
//
//dmzvet:coldpath trace emission is off the cache hot path; the event struct and strings allocate by design
func (c *Cache) emit(kind telemetry.EventKind, flow netsim.FlowKey, chunk *Chunk) {
	bus := c.dev.TraceBus()
	if !bus.Enabled() {
		return
	}
	ev := telemetry.Event{
		At:     c.dev.Now(),
		Kind:   kind,
		Node:   c.dev.Name(),
		Detail: chunk.Name(),
		Bytes:  int64(chunk.Bytes),
	}
	if flow != (netsim.FlowKey{}) {
		ev.Flow = flow.String()
	}
	bus.Emit(ev)
}

// collect exposes the cache to registry snapshots (Prometheus export,
// psdash -live). Snapshot-time only: zero cost on the packet path.
func (c *Cache) collect(emit telemetry.EmitFunc) {
	l := telemetry.Labels{"cache": c.dev.Name()}
	emit("content_cache_hits", l, float64(c.Hits))
	emit("content_cache_misses", l, float64(c.Misses))
	emit("content_cache_hit_bytes", l, float64(c.HitBytes))
	emit("content_cache_egress_saved_bytes", l, float64(c.SavedBytes()))
	emit("content_cache_aggregated", l, float64(c.Aggregated))
	emit("content_cache_evictions", l, float64(c.store.Evictions))
	emit("content_cache_store_bytes", l, float64(c.store.UsedBytes()))
	emit("content_cache_store_budget_bytes", l, float64(c.store.Budget()))
	emit("content_cache_store_chunks", l, float64(c.store.Len()))
	emit("content_cache_pit_pending", l, float64(len(c.pit)))
}

func bitGet(bm []uint64, i int) bool { return bm[i/64]&(1<<(i%64)) != 0 }
func bitSet(bm []uint64, i int)      { bm[i/64] |= 1 << (i % 64) }
