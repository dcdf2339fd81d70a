package netsim

import (
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Dir distinguishes the direction of a packet seen by a tap.
type Dir uint8

// Tap directions.
const (
	DirTx Dir = iota
	DirRx
)

// TapFunc observes packets passively at a port. Taps never modify or drop
// packets; they model optical taps / SPAN ports feeding IDS and passive
// measurement (§3.4, §7.3).
type TapFunc func(p *Packet, d Dir)

// PortCounters are the SNMP-style statistics a device exposes for a port.
// Wire drops caused by LossModels deliberately do NOT appear here: the
// paper's point is that such soft failures are invisible to device error
// monitoring and only detectable by end-to-end active measurement.
// The //dmzvet:ledger tags below pair each packet counter with its byte
// counter: dmzvet's ledgerbalance analyzer proves every code path moves
// both or neither, so the SNMP view can never show packets without
// bytes (or vice versa) after a refactor.
type PortCounters struct {
	TxPackets uint64         //dmzvet:ledger porttx
	TxBytes   units.ByteSize //dmzvet:ledger porttx
	RxPackets uint64         //dmzvet:ledger portrx
	RxBytes   units.ByteSize //dmzvet:ledger portrx

	// QueueDrops counts packets dropped on egress because the output
	// queue was full. These are visible to device monitoring.
	QueueDrops     uint64         //dmzvet:ledger portdrop
	QueueDropBytes units.ByteSize //dmzvet:ledger portdrop
}

// Port is one end of a Link, owned by a Node. Egress is modelled as a
// byte-limited drop-tail queue drained at link rate.
type Port struct {
	Owner Node
	Link  *Link
	Index int // port number on the owning node

	// QueueCap is the egress buffer size in bytes. Devices with
	// "inadequate buffering" (§5) simply have a small value here.
	QueueCap units.ByteSize

	Counters PortCounters

	peer         *Port
	queue        PacketFIFO
	prioQueue    PacketFIFO // strict-priority lane for circuit traffic
	queueBytes   units.ByteSize
	prioBytes    units.ByteSize
	transmitting bool
	taps         []TapFunc

	// capFloor grandfathers queue occupancy that exceeds a capacity
	// shrunk at runtime (SetQueueCap): packets admitted under the old
	// capacity drain normally, and the invariant audit allows occupancy
	// up to this floor until the queue fits the new capacity again.
	capFloor units.ByteSize

	// ctx is the owner's execution context (shard scheduler + capture
	// bus); it is the network's control context until the engine
	// installs.
	ctx *shardCtx

	// arrivals is the delay line of packets propagating toward this
	// port, on its scheduler: the link pushes each one as it leaves the
	// peer, and the line fires deliverCall when it arrives. Its lane is
	// the peer's (see below).
	arrivals *sim.Line

	// Sharded-execution state (see engine.go): on a cut link this port
	// orders its transmissions on lane with laneSeq, and — when the peer
	// runs on another shard — appends them to outbox instead of pushing
	// them onto the peer's arrivals line. lossRNG is the port's own
	// wire-loss stream (Network.Stream), so its draw order cannot depend
	// on the shard count.
	lane    uint32
	laneSeq uint64
	outbox  []handoff
	lossRNG *rand.Rand

	// fluid, when non-nil, couples the port to the hybrid fluid engine
	// (see fluid.go): its backlog shrinks the packet admission budget
	// and its share slows packet serialization. Nil on every port no
	// fluid aggregate traverses, so packet-only runs pay one branch.
	fluid *FluidQueue

	net *Network
}

// Peer returns the port at the other end of the link.
func (p *Port) Peer() *Port { return p.peer }

// Rate returns the link rate seen by this port.
func (p *Port) Rate() units.BitRate { return p.Link.Rate }

// AddTap attaches a passive observer to this port.
func (p *Port) AddTap(t TapFunc) { p.taps = append(p.taps, t) }

// Now returns the port's execution-context clock — its shard
// scheduler's. Tap-fed analyzers (the IDS) must stamp observations with
// this, not the network clock, which lags behind shard time between
// barriers.
func (p *Port) Now() sim.Time { return p.ctx.sched.Now() }

// QueueLen returns the number of packets waiting in the egress queues,
// excluding the one being transmitted.
func (p *Port) QueueLen() int { return p.queue.Len() + p.prioQueue.Len() }

// QueueBytes returns the bytes waiting in both egress lanes.
func (p *Port) QueueBytes() units.ByteSize { return p.queueBytes + p.prioBytes }

// Send transmits the packet out this port, queueing it if the port is
// busy and dropping it if the egress buffer is full.
//
//dmz:hotpath
func (p *Port) Send(pkt *Packet) {
	if pkt.Hops >= MaxHops {
		p.net.countDrop(p.ctx, pkt, DropMaxHops, p.Owner.Name(), "")
		return
	}
	if p.transmitting {
		// Each lane has its own buffer budget, as hardware priority
		// queues do: bulk best-effort backlog must not starve the
		// priority lane of buffer space. Fluid background backlog
		// occupies the same buffer, shrinking both lanes' budgets.
		cap := p.QueueCap
		if p.fluid != nil {
			cap = p.fluidCap()
		}
		if pkt.Priority {
			if p.prioBytes+pkt.Size > cap {
				p.dropForQueue(pkt)
				return
			}
			p.prioQueue.Push(pkt)
			p.prioBytes += pkt.Size
		} else {
			if p.queueBytes+pkt.Size > cap {
				p.dropForQueue(pkt)
				return
			}
			p.queue.Push(pkt)
			p.queueBytes += pkt.Size
		}
		p.emitQueueEvent(telemetry.EvEnqueue, pkt)
		return
	}
	p.startTx(pkt)
}

// emitQueueEvent publishes enqueue/dequeue telemetry when a trace bus
// listens; the Enabled() guard returns before any formatting in the
// untraced steady state.
//
//dmzvet:coldpath emission is guarded by bus.Enabled(); steady state returns before allocating
func (p *Port) emitQueueEvent(kind telemetry.EventKind, pkt *Packet) {
	bus := p.ctx.tracebus(p.net)
	if !bus.Enabled() {
		return
	}
	bus.Emit(telemetry.Event{
		At:     p.ctx.sched.Now(),
		Kind:   kind,
		Node:   p.Owner.Name(),
		Flow:   pkt.Flow.String(),
		Packet: pkt.ID,
		Bytes:  int64(pkt.Size),
		Value:  float64(p.QueueBytes()),
	})
}

func (p *Port) dropForQueue(pkt *Packet) {
	p.Counters.QueueDrops++
	p.Counters.QueueDropBytes += pkt.Size
	p.net.countDrop(p.ctx, pkt, DropQueueOverflow, p.Owner.Name(), "")
}

// finishTxCall / deliverCall are the static scheduler callbacks for the
// two per-packet events every forwarded byte pays (serialization done,
// propagation done). Scheduling through sim.CallFunc with the port and
// packet as operands keeps the packet hot path closure-free: the kernel
// stores both pointers inline, in the event's slot or its line entry.
//
//dmz:hotpath
func finishTxCall(a, b any) { a.(*Port).finishTx(b.(*Packet)) }

//dmz:hotpath
func deliverCall(a, b any) { a.(*Port).deliver(b.(*Packet)) }

//dmz:hotpath
func (p *Port) startTx(pkt *Packet) {
	p.transmitting = true
	d := p.Link.Rate.Serialize(pkt.Size)
	if f := p.fluid; f != nil && f.Share > 0 {
		// Fluid background consumes Share of the link; the packet sees
		// the residual capacity as proportionally slower service. Share
		// is clamped by the engine and the audit to maxFluidShare, and
		// defensively here, so the divisor stays positive.
		share := f.Share
		if share > maxFluidShare {
			share = maxFluidShare
		}
		d = time.Duration(float64(d) / (1 - share))
	}
	p.ctx.sched.AfterCall(tagPort, d, finishTxCall, p, pkt)
}

//dmz:hotpath
func (p *Port) finishTx(pkt *Packet) {
	p.Counters.TxPackets++
	p.Counters.TxBytes += pkt.Size
	for _, t := range p.taps {
		t(pkt, DirTx)
	}
	p.Link.carry(p, pkt)

	next := p.prioQueue.Pop()
	if next != nil {
		p.prioBytes -= next.Size
	} else if next = p.queue.Pop(); next != nil {
		p.queueBytes -= next.Size
	}
	if next != nil {
		p.emitQueueEvent(telemetry.EvDequeue, next)
		p.startTx(next)
	} else {
		p.transmitting = false
	}
	if p.capFloor > 0 && p.queueBytes <= p.QueueCap && p.prioBytes <= p.QueueCap {
		p.capFloor = 0
	}
}

// SetQueueCap changes the egress buffer capacity at runtime — the
// buffer-shrink fault (internal/fault) uses it. Shrinking below the
// current occupancy does not destroy queued packets: they were admitted
// legally under the old capacity and drain normally, while new arrivals
// see the new capacity. The pre-shrink occupancy is grandfathered for
// the invariant audit (see auditQueues) until the queue fits again.
func (p *Port) SetQueueCap(c units.ByteSize) {
	p.QueueCap = c
	if p.queueBytes > c || p.prioBytes > c {
		floor := p.queueBytes
		if p.prioBytes > floor {
			floor = p.prioBytes
		}
		if floor > p.capFloor {
			p.capFloor = floor
		}
	}
}

//dmz:hotpath
func (p *Port) deliver(pkt *Packet) {
	p.Counters.RxPackets++
	p.Counters.RxBytes += pkt.Size
	for _, t := range p.taps {
		t(pkt, DirRx)
	}
	p.Owner.Receive(pkt, p)
}

// Link is a full-duplex wire between two ports, with a propagation delay
// and an optional loss model representing failing hardware in the path.
//
// Delay must not change after Connect: each end's arrivals line needs
// its packets to arrive in the order they were sent, and panics on a
// push that would arrive before the packet ahead of it.
type Link struct {
	A, B  *Port
	Rate  units.BitRate
	Delay time.Duration
	Loss  LossModel
	MTU   int

	// down marks a hard failure (fiber cut, pulled optic). Unlike soft
	// failures, hard failures ARE visible to device monitoring: both
	// ends report loss of link via Down().
	down bool

	// Partition-planner hints (see MarkCut / MarkNoCut in shard.go).
	cutHint bool
	noCut   bool

	// desc is the "a<->b" rendering, cached at Connect time so the
	// drop path never concatenates strings (hotpathx contract).
	desc string

	net *Network
}

// SetDown cuts or restores the link. While the link is down, every
// packet that finishes serializing onto it is dropped as DropLinkDown;
// packets already propagating when it goes down still arrive. This is
// the "hard failure" of §3.3 that network management systems catch
// easily — in contrast to the soft failures only active measurement
// finds.
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports link status — the signal an SNMP poller sees immediately.
func (l *Link) Down() bool { return l.down }

// WireDrops returns the packets the loss model corrupted on this link:
// the {DropWireLoss, "a<->b"} site of Network.DropStats, which parallel
// links between the same two nodes would share. It is experiment
// bookkeeping only — the ground truth that device SNMP counters
// (PortCounters) do not see.
func (l *Link) WireDrops() uint64 {
	return l.net.DropStats[DropSite{Reason: DropWireLoss, Node: l.describe()}]
}

// Ends returns the names of the nodes at the link's two ends, in the
// A, B order they were passed to Connect. Fault injection and loss
// localization use it to name links without reaching into ports.
func (l *Link) Ends() (a, b string) {
	return l.A.Owner.Name(), l.B.Owner.Name()
}

// carry puts a fully serialized packet on the wire from one port to its
// peer, applying corruption loss, and queues its arrival one
// propagation delay from now on the peer's arrivals line.
//
//dmz:hotpath
func (l *Link) carry(from *Port, pkt *Packet) {
	sc := from.ctx
	if l.down {
		l.net.countDrop(sc, pkt, DropLinkDown, l.describe(), "")
		return
	}
	if l.Loss != nil {
		if l.Loss.Drop(sc.sched.Now(), from.lossRNG, pkt) {
			l.net.countDrop(sc, pkt, DropWireLoss, l.describe(), "")
			return
		}
	}
	to := from.peer
	at := sc.sched.Now().Add(l.Delay)
	if from.lane == 0 {
		to.arrivals.Push(at, pkt)
		return
	}
	// Cut link: order the delivery by the link-direction lane so
	// execution order is shard-count-invariant. When the peer runs on
	// another shard, park the delivery in this port's outbox; the
	// engine pushes it onto the peer's line at the barrier drain.
	from.laneSeq++
	if to.ctx != sc {
		from.outbox = append(from.outbox, handoff{pkt: pkt, at: at, seq: from.laneSeq})
		return
	}
	to.arrivals.PushLane(from.laneSeq, at, pkt)
}

// handoff is one packet crossing a cut to a port on another shard: the
// packet, its arrival time, and the sender's lane sequence number that
// orders it inside the cut link's lane.
type handoff struct {
	pkt *Packet
	at  sim.Time
	seq uint64
}

func (l *Link) describe() string {
	return l.desc
}
