package netsim

import "repro/internal/units"

// PacketFIFO is a first-in, first-out packet queue on a power-of-two
// ring. The ring doubles when a push finds it full and is reused after
// that, so a queue that has once reached its peak depth pushes and pops
// without allocating. Port egress lanes, the degraded store-and-forward
// engine and the firewall's inspection engines queue through it.
//
// A PacketFIFO is a structural packet holder: whoever embeds one counts
// its Len in Network.Conservation (or through PacketHolder).
//
//dmzvet:holder
type PacketFIFO struct {
	buf  []*Packet // ring storage; its length is zero or a power of two
	head int       // slot of the oldest packet
	n    int       // packets queued
}

// Len returns the number of queued packets.
func (q *PacketFIFO) Len() int { return q.n }

// Push appends pkt at the tail.
//
//dmz:hotpath
func (q *PacketFIFO) Push(pkt *Packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = pkt
	q.n++
}

// Pop removes and returns the packet at the head, or nil when the queue
// is empty. The freed slot is cleared, so the ring never keeps a packet
// alive after it left the queue.
//
//dmz:hotpath
func (q *PacketFIFO) Pop() *Packet {
	if q.n == 0 {
		return nil
	}
	pkt := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return pkt
}

// Bytes returns the summed size of the queued packets, walking the ring
// in place: the queue audits check byte counters against it.
func (q *PacketFIFO) Bytes() units.ByteSize {
	var sum units.ByteSize
	for i := 0; i < q.n; i++ {
		sum += q.buf[(q.head+i)&(len(q.buf)-1)].Size
	}
	return sum
}

// grow doubles the full ring, unwrapping it so the head lands in slot 0.
func (q *PacketFIFO) grow() {
	//dmzvet:alloc ring growth: doubles until the queue's peak depth, then the ring is reused
	buf := make([]*Packet, max(8, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
