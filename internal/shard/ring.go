package shard

import (
	"sync/atomic"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// defaultRingCap is each cross-shard ring's entry capacity. 1024
// entries × 40 bytes keeps a ring comfortably inside L2 while covering
// any realistic window's worth of in-flight packets on one link
// direction; overflow spills to a producer-owned slice rather than
// blocking (a blocked producer could never reach the barrier that
// drains the ring — a deadlock, not back-pressure).
const defaultRingCap = 1024

// ringEntry is one packet crossing a cut: destination port, the packet,
// its precomputed arrival time, and the sender's lane sequence number
// that orders it inside the cut link's lane.
type ringEntry struct {
	to  *netsim.Port
	pkt *netsim.Packet
	at  sim.Time
	seq uint64
}

// Ring is the single-producer single-consumer queue carrying packets
// across one direction of one cut link. The producer is the sending
// shard's event goroutine (Link.carry → Push); the consumer is the
// engine's barrier drain, which only runs with every shard parked.
//
// head and tail live on separate cache lines so the producer's tail
// stores never ping-pong the consumer's head line (false sharing would
// serialize exactly the path sharding exists to parallelize).
//
// Packets parked here are counted by the conservation ledger through
// Len (netsim.CrossQueue), so an audit taken while packets sit in a
// ring still balances.
//
//dmzvet:holder
type Ring struct {
	buf  []ringEntry
	mask uint64

	_    [64]byte // keep head and tail on distinct cache lines
	head atomic.Uint64
	_    [64]byte
	tail atomic.Uint64
	_    [64]byte

	// overflow is the producer-owned spill for a full ring. Entries here
	// were pushed after every buffered entry, so draining buf first then
	// overflow preserves push order.
	overflow []ringEntry
}

// NewRing returns an empty ring. capacity is rounded up to a power of
// two; zero selects defaultRingCap.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = defaultRingCap
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	return &Ring{buf: make([]ringEntry, c), mask: uint64(c - 1)}
}

// Push implements netsim.CrossQueue: enqueue one packet handoff. Called
// only from the producing shard's goroutine; allocation-free until the
// ring overflows.
//
//dmz:hotpath
func (r *Ring) Push(to *netsim.Port, pkt *netsim.Packet, at sim.Time, seq uint64) {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		//dmzvet:alloc overflow spill: a full ring must not block (the
		// producer parking here could never reach the draining barrier)
		r.overflow = append(r.overflow, ringEntry{to: to, pkt: pkt, at: at, seq: seq})
		return
	}
	r.buf[t&r.mask] = ringEntry{to: to, pkt: pkt, at: at, seq: seq}
	r.tail.Store(t + 1)
}

// Drain pops every entry, in push order, into fn. Called only by the
// engine at a barrier, with the producing shard parked (the barrier's
// happens-before edge is what makes reading overflow safe).
func (r *Ring) Drain(fn func(e ringEntry)) {
	h, t := r.head.Load(), r.tail.Load()
	for ; h != t; h++ {
		e := r.buf[h&r.mask]
		r.buf[h&r.mask] = ringEntry{}
		fn(e)
	}
	r.head.Store(h)
	if len(r.overflow) > 0 {
		for _, e := range r.overflow {
			fn(e)
		}
		r.overflow = r.overflow[:0]
	}
}

// Len implements netsim.CrossQueue: the number of parked entries.
// Barrier-only, like Drain.
func (r *Ring) Len() int {
	return int(r.tail.Load()-r.head.Load()) + len(r.overflow)
}
