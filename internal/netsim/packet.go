// Package netsim is a packet-level discrete-event network simulator.
//
// It models the elements the Science DMZ paper's arguments rest on:
// links with finite rate and propagation delay, output-queued switches and
// routers with finite byte buffers, hosts with transport demultiplexing,
// loss models for failing components ("soft failures"), and passive taps
// for measurement. Transport protocols (internal/tcp) and middleboxes
// (internal/firewall) are built on top of these primitives.
//
// The simulator is output-queued: a device that forwards a packet places
// it on the egress port's drop-tail queue, the port serializes packets at
// link rate, and the wire adds propagation delay (and possibly corruption
// loss) before handing the packet to the far end. This is sufficient to
// reproduce every congestion pathology in the paper — firewall buffer
// overflow, switch fan-in, bursty TCP — without modelling switch fabrics.
//
// Every network runs on one event loop, a conservative parallel engine
// (engine.go, partition.go, shard.go): the topology is cut at
// its long-delay boundary links into domains that run on one or more
// shard schedulers in lockstep windows, and the output is identical at
// any shard count.
package netsim

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/units"
)

// Proto identifies a transport protocol inside a simulated packet.
type Proto uint8

// Transport protocols understood by the simulator.
const (
	ProtoTCP Proto = iota
	ProtoUDP
)

func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Flags are TCP-style control flags. Non-TCP packets leave them zero.
type Flags uint8

// TCP control flags.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
	FlagPSH

	// FlagCached marks a content data packet served by an in-network
	// cache (internal/content) rather than the origin server. Consumers
	// use it to classify completions; it has no TCP meaning.
	FlagCached
)

// Has reports whether all flags in f are set.
func (fl Flags) Has(f Flags) bool { return fl&f == f }

func (fl Flags) String() string {
	s := ""
	if fl.Has(FlagSYN) {
		s += "S"
	}
	if fl.Has(FlagACK) {
		s += "A"
	}
	if fl.Has(FlagFIN) {
		s += "F"
	}
	if fl.Has(FlagRST) {
		s += "R"
	}
	if fl.Has(FlagPSH) {
		s += "P"
	}
	if fl.Has(FlagCached) {
		s += "C"
	}
	if s == "" {
		return "-"
	}
	return s
}

// FlowKey identifies a transport flow. Hosts are addressed by name; the
// simulator does not model IP addressing, subnets, or ARP, because none of
// the paper's effects depend on them.
type FlowKey struct {
	Src, Dst         string
	SrcPort, DstPort uint16
	Proto            Proto
}

// Reverse returns the key of the opposite direction of the same flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{
		Src: k.Dst, Dst: k.Src,
		SrcPort: k.DstPort, DstPort: k.SrcPort,
		Proto: k.Proto,
	}
}

// Canonical returns the direction-independent form of the key: whichever
// of k and k.Reverse() has the smaller (Src, SrcPort). Both directions of
// a flow map to it, so stateful middleboxes key one session per flow.
func (k FlowKey) Canonical() FlowKey {
	r := k.Reverse()
	if r.Src < k.Src || (r.Src == k.Src && r.SrcPort < k.SrcPort) {
		return r
	}
	return k
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s %s:%d>%s:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// NoWScale marks the absence of the TCP window-scale option on a segment.
const NoWScale = -1

// Packet is a simulated packet. TCP header fields are carried inline —
// middleboxes such as firewalls need to inspect and rewrite them (the
// Penn State use case hinges on a firewall clearing the window-scale
// option), and a single concrete struct keeps the hot path allocation-
// and interface-free.
type Packet struct {
	ID   uint64
	Flow FlowKey

	// Size is the on-wire size in bytes, including headers.
	Size units.ByteSize

	// TCP header fields. Seq/Ack are absolute byte sequence numbers.
	Flags Flags
	Seq   int64
	Ack   int64

	// WindowRaw is the 16-bit window field as transmitted. The receiver
	// of the segment left-shifts it by the window scale negotiated on the
	// SYN exchange, exactly as RFC 1323 specifies.
	WindowRaw int

	// WScale is the window-scale option (shift count) carried on SYN and
	// SYN-ACK segments, or NoWScale when the option is absent. Middleboxes
	// that "sanitize" TCP options clear it to NoWScale.
	WScale int

	// MSSOpt is the maximum-segment-size option on SYN segments (bytes),
	// or 0 when absent.
	MSSOpt int

	// SackOK is the SACK-permitted option on SYN/SYN-ACK segments.
	SackOK bool

	// Sack carries up to three selective-acknowledgment blocks
	// ([start, end) sequence ranges) on ACK segments.
	Sack [][2]int64

	// Payload carries opaque transport or application data, such as OWAMP
	// probe metadata. It is never interpreted by the network layer.
	Payload any

	// SentAt is stamped by the sending host when the packet first enters
	// the network; measurement tools use it for one-way delay.
	SentAt sim.Time

	// Priority marks the packet for the strict-priority lane on egress
	// ports. Virtual-circuit classifiers (internal/circuit) set it for
	// traffic conforming to a bandwidth reservation.
	Priority bool

	// Hops counts devices traversed; packets exceeding MaxHops are
	// dropped as routing loops.
	Hops int

	// pooled marks a packet currently sitting in its network's
	// free-list (see pool.go); ReleasePacket uses it to catch double
	// releases, which would alias two live packets.
	pooled bool
}

// MaxHops bounds forwarding to catch routing loops in topology bugs.
const MaxHops = 64

// IsTCPData reports whether the packet carries TCP payload bytes, judged
// by wire size against a bare header.
func (p *Packet) IsTCPData(headerSize units.ByteSize) bool {
	return p.Flow.Proto == ProtoTCP && p.Size > headerSize
}

func (p *Packet) String() string {
	return fmt.Sprintf("[%s %s seq=%d ack=%d %dB]", p.Flow, p.Flags, p.Seq, p.Ack, p.Size)
}
