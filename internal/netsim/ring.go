package netsim

import (
	"sync/atomic"

	"repro/internal/sim"
)

// ringCap is each cross-shard ring's entry capacity, a power of two.
// 1024 entries × 24 bytes keeps a ring comfortably inside L2 while
// covering any realistic window's worth of in-flight packets on one
// link direction; overflow spills to a producer-owned slice rather than
// blocking (a blocked producer could never reach the barrier that
// drains the ring — a deadlock, not back-pressure).
const ringCap = 1024

// ringEntry is one packet crossing a cut: the packet, its precomputed
// arrival time, and the sender's lane sequence number that orders it
// inside the cut link's lane.
type ringEntry struct {
	pkt *Packet
	at  sim.Time
	seq uint64
}

// Ring is the single-producer single-consumer queue carrying packets
// across one direction of one cut link whose ends run on different
// shards. The producer is the sending shard's event goroutine
// (Link.carry → Push); the consumer is the engine's barrier drain,
// which only runs with every shard parked.
//
// head and tail live on separate cache lines so the producer's tail
// stores never ping-pong the consumer's head line (false sharing would
// serialize exactly the path sharding exists to parallelize).
//
// Packets parked here are counted by the conservation ledger through
// Len, so an audit taken while packets sit in a ring still balances.
//
//dmzvet:holder
type Ring struct {
	to   *Port // the receiving port
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

func newRing(to *Port) *Ring {
	return &Ring{to: to, buf: make([]ringEntry, ringCap), mask: ringCap - 1}
}

// Push enqueues one packet handoff. Called only from the producing
// shard's goroutine; allocation-free until the ring overflows.
//
//dmz:hotpath
func (r *Ring) Push(pkt *Packet, at sim.Time, seq uint64) {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		//dmzvet:alloc overflow spill: a full ring must not block (the
		// producer parking here could never reach the draining barrier)
		r.overflow = append(r.overflow, ringEntry{pkt: pkt, at: at, seq: seq})
		return
	}
	r.buf[t&r.mask] = ringEntry{pkt: pkt, at: at, seq: seq}
	r.tail.Store(t + 1)
}

// drain pops every entry, in push order, onto the receiving port's
// arrivals line, keyed by the cut lane and the entry's lane sequence,
// and reports whether any arrival is due exactly at t. Called only by
// the engine at a barrier, with the producing shard parked (the
// barrier's happens-before edge is what makes reading overflow safe).
func (r *Ring) drain(t sim.Time) (due bool) {
	h, tail := r.head.Load(), r.tail.Load()
	for ; h != tail; h++ {
		due = r.deliver(&r.buf[h&r.mask], t) || due
	}
	r.head.Store(h)
	for i := range r.overflow {
		due = r.deliver(&r.overflow[i], t) || due
	}
	r.overflow = r.overflow[:0]
	return due
}

func (r *Ring) deliver(e *ringEntry, t sim.Time) bool {
	r.to.arrivals.PushLane(e.seq, e.at, e.pkt)
	due := e.at == t
	*e = ringEntry{}
	return due
}

// Len reports the parked entries. Barrier-only, like drain.
func (r *Ring) Len() int {
	return int(r.tail.Load()-r.head.Load()) + len(r.overflow)
}
