package netsim

// Packet free-lists. The TCP hot path creates (and consumes) one Packet
// per segment and per ACK; at 100G line rates that is millions of heap
// allocations per simulated second. NewPacket/ReleasePacket recycle
// packets through free-lists instead: one per execution context (the
// control context and each shard), never a sync.Pool:
//
//   - Determinism: sync.Pool reuse depends on GC timing and P-local
//     caches, so two identical runs could see different Packet object
//     identities. A context's free-list is used only from that
//     context's (single-goroutine) events and recycles in strict LIFO
//     order — runs stay bit-for-bit reproducible, and parallel sweep
//     workers (internal/harness) never share packets.
//   - Ledger integrity: the conservation audit (invariant.go) counts a
//     packet injected when Host.Send stamps it. A released packet
//     re-enters through NewPacket as a *new* logical packet — zeroed,
//     re-stamped with a fresh ID on Send, and counted injected again —
//     never re-injected while a previous life's delivered/dropped
//     entry still references it. ReleasePacket itself touches no
//     ledger counter.
//
// Release rules: only release a packet that has fully left the
// simulation — consumed by the transport handler it was delivered to —
// and only once (a double release panics; it would alias two live
// packets). Middleboxes, queues, and holders must never release:
// structurally in-flight packets are still counted by the audit.
//
// A host's transport allocates and releases through its own context's
// pool (Host.NewPacket / Host.ReleasePacket), so the hot path stays
// single-owner and lock-free. A transfer across a shard cut allocates
// on the sender's shard and releases on the receiver's; the engine
// evens the shards' lists out at every barrier, while every worker is
// parked (Engine.balancePools), so neither pool keeps missing nor keeps
// growing. Which pool a packet lands in therefore depends on the
// partition: PacketsReused is diagnostics, never exported into golden
// metrics.

// pktPool is one execution context's packet free-list. Packets here
// have left the simulation (released after handler consumption), so the
// conservation ledger no longer counts them; the holder marker reflects
// that the stash is deliberate and pool-audited, not a leak.
//
//dmzvet:holder
type pktPool struct {
	free   []*Packet
	reused uint64
}

//dmz:hotpath
func (pp *pktPool) get() *Packet {
	k := len(pp.free)
	if k == 0 {
		//dmzvet:alloc pool-miss path: steady state is served from the free-list
		return &Packet{}
	}
	p := pp.free[k-1]
	pp.free[k-1] = nil
	pp.free = pp.free[:k-1]
	pp.reused++
	sack := p.Sack[:0]
	*p = Packet{Sack: sack}
	return p
}

//dmz:hotpath
func (pp *pktPool) put(p *Packet) {
	if p.pooled {
		panic("netsim: packet released twice")
	}
	p.pooled = true
	pp.free = append(pp.free, p)
}

// NewPacket returns a zeroed packet, reusing a released one when
// available. The Sack backing array survives reuse (length reset to
// zero) so ACK construction does not reallocate it every segment.
// It draws from the control context's pool; shard-affine code (host
// transports) uses Host.NewPacket instead.
//
//dmz:hotpath
func (n *Network) NewPacket() *Packet { return n.ctl.pool.get() }

// ReleasePacket returns a consumed packet to the control free-list
// for reuse by NewPacket. See the release rules above; releasing the
// same packet twice panics, since it would hand one object to two
// future senders.
//
//dmz:hotpath
func (n *Network) ReleasePacket(p *Packet) { n.ctl.pool.put(p) }

// PacketsReused reports how many NewPacket calls were served from the
// free-lists (all contexts) — the allocation-churn savings, visible to
// benchmarks and the pool tests. Partition-dependent under sharding;
// never export it into golden metrics.
func (n *Network) PacketsReused() uint64 {
	total := n.ctl.pool.reused
	for _, sc := range n.engineShards() {
		total += sc.pool.reused
	}
	return total
}
