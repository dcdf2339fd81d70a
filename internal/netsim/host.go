package netsim

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Handler consumes packets delivered to a host transport port. The tcp
// package and measurement tools implement it.
type Handler interface {
	Deliver(pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *Packet)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(pkt *Packet) { f(pkt) }

// Host is an end system: it originates and terminates flows and
// demultiplexes arriving packets to registered transport handlers by
// destination port, per protocol.
type Host struct {
	NodeBase

	net      *Network
	handlers map[protoPort]Handler
	nextPort uint16

	// Packet IDs: the host stamps them from its own counter in the
	// namespace of its registration rank (Network.idBase), so they never
	// depend on the partition.
	idBase, idSeq uint64
}

type protoPort struct {
	proto Proto
	port  uint16
}

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Bind registers a handler for a transport port. It panics if the port is
// taken — two services binding the same port is a configuration bug.
func (h *Host) Bind(proto Proto, port uint16, fn Handler) {
	key := protoPort{proto, port}
	if _, ok := h.handlers[key]; ok {
		panic(fmt.Sprintf("netsim: %s port %s/%d already bound", h.Name(), proto, port))
	}
	h.handlers[key] = fn
}

// Unbind removes a handler, freeing the port.
func (h *Host) Unbind(proto Proto, port uint16) {
	delete(h.handlers, protoPort{proto, port})
}

// EphemeralPort returns a fresh local port number for outgoing flows.
func (h *Host) EphemeralPort() uint16 {
	for {
		h.nextPort++
		if h.nextPort < 49152 {
			h.nextPort = 49152
		}
		if _, ok := h.handlers[protoPort{ProtoTCP, h.nextPort}]; !ok {
			return h.nextPort
		}
	}
}

// Receive implements Node: demultiplex to the bound handler.
func (h *Host) Receive(pkt *Packet, _ *Port) {
	key := protoPort{pkt.Flow.Proto, pkt.Flow.DstPort}
	if fn, ok := h.handlers[key]; ok {
		h.ctx.ledger.delivered++
		fn.Deliver(pkt)
		return
	}
	h.net.countDrop(h.ctx, pkt, DropNoHandler, h.Name(), "")
}

// Send stamps and transmits a packet toward its destination via the
// host's routing table. Packets to unknown destinations are dropped and
// counted.
func (h *Host) Send(pkt *Packet) {
	h.idSeq++
	pkt.ID = h.idBase | h.idSeq
	pkt.SentAt = h.ctx.sched.Now()
	h.ctx.ledger.injected++
	out := h.RouteTo(pkt.Flow.Dst)
	if out == nil {
		h.net.countDrop(h.ctx, pkt, DropNoLocalRoute, h.Name(), pkt.Flow.Dst)
		return
	}
	out.Send(pkt)
}

// Now returns the host's simulation clock: its shard scheduler's.
// Transport code stamping times on the data path must use this, never
// Network.Now, which lags behind shard time between barriers.
func (h *Host) Now() sim.Time { return h.ctx.sched.Now() }

// NewPacket allocates from the host's execution context's free-list.
// Transports allocate here so the pool stays single-owner per shard.
//
//dmz:hotpath
func (h *Host) NewPacket() *Packet { return h.ctx.pool.get() }

// ReleasePacket recycles a consumed packet into the host's context pool.
//
//dmz:hotpath
func (h *Host) ReleasePacket(p *Packet) { h.ctx.pool.put(p) }

// TraceBus returns the bus the host's transport should emit trace events
// to: its shard's capture bus when the network is traced (merged
// canonically at barriers). Nil-receiver-safe via Bus.Enabled like
// Network.TraceBus.
func (h *Host) TraceBus() *telemetry.Bus { return h.ctx.tracebus(h.net) }

// PortBinding names a bound transport service on a host.
type PortBinding struct {
	Proto Proto
	Port  uint16
}

// BoundPorts returns the host's bound services, sorted — the "application
// set" a Science DMZ security audit inspects.
func (h *Host) BoundPorts() []PortBinding {
	out := make([]PortBinding, 0, len(h.handlers))
	for k := range h.handlers {
		out = append(out, PortBinding{Proto: k.proto, Port: k.port})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proto != out[j].Proto {
			return out[i].Proto < out[j].Proto
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// NICRate returns the line rate of the host's first interface, or zero if
// the host is unconnected.
func (h *Host) NICRate() units.BitRate {
	if len(h.Ports()) == 0 {
		return 0
	}
	return h.Ports()[0].Rate()
}
