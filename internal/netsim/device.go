package netsim

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Filter inspects (and may rewrite) packets traversing a device, deciding
// whether each is forwarded. Router ACLs (internal/acl), SDN flow tables
// (internal/sdn) and option-sanitizing middleboxes implement it.
type Filter interface {
	// FilterName identifies the filter in drop accounting.
	FilterName() string
	// Check returns false to drop the packet. It may mutate the packet
	// (e.g., strip TCP options) before forwarding.
	Check(pkt *Packet, in *Port) bool
}

// Forwarder overrides destination-based routing for matching packets.
// The SDN package installs one to steer flows (firewall bypass, IDS
// redirection). Returning ok=false falls through to the routing table.
type Forwarder interface {
	Route(pkt *Packet, in *Port) (out *Port, ok bool)
}

// Interceptor sits on a device's forwarding path, between the filter
// chain and forwarding. Unlike a Filter (which only passes or drops),
// an interceptor may consume a packet and answer it with traffic of its
// own — the attach point for in-network services such as content caches
// (internal/content).
//
// Intercept returns true to let the packet continue down the normal
// forwarding path. Returning false consumes it: the device does nothing
// further, and the interceptor takes ownership. A consuming interceptor
// MUST settle the conservation ledger for every packet it keeps:
// Device.Absorb it (recycled, counted as terminated in-network), hold
// it as a PacketHolder, or destroy it via Network.CountDropReason —
// otherwise AuditInvariants reports the packet leaked. Traffic the
// interceptor creates in response enters through Device.Originate, so
// the ledger closes from the other side too.
type Interceptor interface {
	// InterceptorName identifies the interceptor in diagnostics.
	InterceptorName() string
	// Intercept examines a packet arriving at the device, after filters
	// ran. False means the interceptor consumed the packet.
	Intercept(pkt *Packet, in *Port) bool
}

// DeviceConfig describes a router or switch.
type DeviceConfig struct {
	// FwdLatency is per-packet forwarding latency (lookup + fabric).
	FwdLatency time.Duration

	// EgressBuffer is the per-port output queue capacity in bytes. The
	// paper's "inadequate buffering" devices have this set small. The
	// zero value defaults to 1 MB.
	EgressBuffer units.ByteSize

	// CutThrough selects cut-through switching: forwarding begins after
	// the header arrives. Under sustained load such a device may degrade
	// to a store-and-forward fallback path — the §6.1 University of
	// Colorado pathology — where packets are fully received and
	// forwarded by a slow shared engine with a small packet pool.
	CutThrough bool

	// SFRate is the degraded-mode forwarding rate of the shared
	// store-and-forward engine. Zero defaults to 4 Gb/s: far below the
	// fabric, the §3.3 "forwarding with the management CPU" class of
	// soft failure.
	SFRate units.BitRate

	// SFBuffer is the degraded-mode shared packet pool; arrivals beyond
	// it are dropped. Zero defaults to 256 KB.
	SFBuffer units.ByteSize

	// ModeSwitchUtilization is the fraction of any egress port's
	// utilization (over 100 ms windows) at which a cut-through device
	// degrades. The zero value defaults to 0.5. Degradation is sticky —
	// the §6.1 fault needed a vendor fix, not an idle period.
	ModeSwitchUtilization float64
}

// Device is a router or switch: it forwards packets between ports using a
// destination-based routing table, subject to filters and an optional
// forwarder override.
//
// Device is an audited packet holder: sfQueue packets are counted as
// structurally in-flight by Network.Conservation.
//
//dmzvet:holder
type Device struct {
	NodeBase

	Config DeviceConfig

	net         *Network
	fib         map[string]*Port
	filters     []Filter
	forwarder   Forwarder
	interceptor Interceptor

	// Packet IDs for in-network origination, as on Host: Originate
	// stamps them from the device's own counter in the namespace of its
	// registration rank.
	idBase, idSeq uint64

	// Degraded reports whether a cut-through device has fallen back to
	// store-and-forward mode (sticky until ResetMode).
	Degraded bool

	// SFDrops counts packets dropped at the degraded-mode shared pool.
	SFDrops uint64

	// Forwarded counts packets successfully forwarded.
	Forwarded uint64

	// Degraded-mode shared store-and-forward engine state.
	sfQueue   []*Packet
	sfBytes   units.ByteSize
	sfBusy    bool
	utilCheck sim.Time               // start of current utilization window
	utilBytes map[int]units.ByteSize // per-port rx+tx bytes at window start
}

// AddFilter appends a filter to the device's chain. Filters run in order;
// the first to reject wins.
func (d *Device) AddFilter(f Filter) { d.filters = append(d.filters, f) }

// Filters returns the installed filter chain.
func (d *Device) Filters() []Filter { return d.filters }

// SetForwarder installs a routing override (e.g., an SDN flow table).
func (d *Device) SetForwarder(f Forwarder) { d.forwarder = f }

// SetInterceptor installs the device's forwarding-path service (at most
// one — a second install panics, because two consuming interceptors
// would make packet ownership ambiguous). It runs after the filter
// chain on every received packet.
func (d *Device) SetInterceptor(ic Interceptor) {
	if d.interceptor != nil {
		panic(fmt.Sprintf("netsim: %s already has interceptor %s", d.Name(), d.interceptor.InterceptorName()))
	}
	d.interceptor = ic
}

// Interceptor returns the installed interceptor, or nil.
func (d *Device) Interceptor() Interceptor { return d.interceptor }

// Network returns the network the device belongs to.
func (d *Device) Network() *Network { return d.net }

// Now returns the device's simulation clock: its shard scheduler's.
// Interceptor code stamping times must use this, never Network.Sched.
func (d *Device) Now() sim.Time { return d.ctx.sched.Now() }

// NewPacket allocates from the device's execution context's free-list,
// for interceptors that originate reply traffic.
//
//dmz:hotpath
func (d *Device) NewPacket() *Packet { return d.ctx.pool.get() }

// ReleasePacket recycles a consumed packet into the device's context
// pool. Only for packets the caller fully owns and has already settled
// in the ledger (Absorb does both at once); double release panics.
//
//dmz:hotpath
func (d *Device) ReleasePacket(p *Packet) { d.ctx.pool.put(p) }

// TraceBus returns the bus the device's interceptor should emit trace
// events to: its shard's capture bus when the network is traced.
// Nil-receiver-safe via Bus.Enabled.
func (d *Device) TraceBus() *telemetry.Bus { return d.ctx.tracebus(d.net) }

// Originate stamps a device-created packet (an interceptor's reply) and
// transmits it out the given port. It is the in-network counterpart of
// Host.Send: the packet enters the conservation ledger through the
// originated column, so hit-served traffic audits separately from host
// traffic.
//
//dmz:hotpath
func (d *Device) Originate(pkt *Packet, out *Port) {
	d.idSeq++
	pkt.ID = d.idBase | d.idSeq
	pkt.SentAt = d.ctx.sched.Now()
	d.net.originated.Add(1)
	out.Send(pkt)
}

// Absorb terminates a packet in-network: the interceptor consumed it
// (a cache answering an interest locally) and no host will ever see it.
// The packet is counted in the absorbed ledger column and recycled.
//
//dmz:hotpath
func (d *Device) Absorb(pkt *Packet) {
	d.net.absorbed.Add(1)
	d.ctx.pool.put(pkt)
}

// SetRoute implements Router: it pins the egress port for a destination
// host, overriding computed routes.
func (d *Device) SetRoute(dst string, out *Port) { d.fib[dst] = out }

// RouteTo implements Router.
func (d *Device) RouteTo(dst string) *Port { return d.fib[dst] }

// ResetMode returns a degraded cut-through device to cut-through mode —
// modelling the vendor fix in §6.1. Packets already in the degraded
// engine drain normally.
func (d *Device) ResetMode() {
	d.Degraded = false
	d.utilCheck = 0
	d.utilBytes = nil
}

// Receive implements Node: filter, route, and forward the packet.
func (d *Device) Receive(pkt *Packet, in *Port) {
	pkt.Hops++
	for _, f := range d.filters {
		if !f.Check(pkt, in) {
			d.net.countDrop(d.ctx, pkt, DropFiltered, d.Name(), f.FilterName())
			return
		}
	}

	if ic := d.interceptor; ic != nil && !ic.Intercept(pkt, in) {
		// Consumed: the interceptor now owns the packet and its ledger
		// settlement (Absorb, holder accounting, or a counted drop).
		return
	}

	if d.Config.CutThrough {
		d.checkModeSwitch()
		if d.Degraded {
			d.sfEnqueue(pkt)
			return
		}
	}
	d.forward(pkt)
}

func (d *Device) forward(pkt *Packet) {
	var out *Port
	if d.forwarder != nil {
		if p, ok := d.forwarder.Route(pkt, nil); ok {
			out = p
		}
	}
	if out == nil {
		p, ok := d.fib[pkt.Flow.Dst]
		if !ok {
			d.net.countDrop(d.ctx, pkt, DropNoRoute, d.Name(), pkt.Flow.Dst)
			return
		}
		out = p
	}
	d.Forwarded++
	if bus := d.ctx.tracebus(d.net); bus.Enabled() {
		bus.Emit(telemetry.Event{
			At:     d.ctx.sched.Now(),
			Kind:   telemetry.EvForward,
			Node:   d.Name(),
			Flow:   pkt.Flow.String(),
			Packet: pkt.ID,
			Bytes:  int64(pkt.Size),
		})
	}
	if delay := d.Config.FwdLatency; delay > 0 {
		d.net.transit.Add(1)
		d.ctx.sched.AfterTag(tagDevice, delay, func() {
			d.net.transit.Add(^uint64(0))
			out.Send(pkt)
		})
		return
	}
	out.Send(pkt)
}

// sfEnqueue runs the degraded store-and-forward path: one shared slow
// engine with a small packet pool.
func (d *Device) sfEnqueue(pkt *Packet) {
	buf := d.Config.SFBuffer
	if buf == 0 {
		buf = 256 * units.KB
	}
	if d.sfBytes+pkt.Size > buf {
		d.SFDrops++
		d.net.countDrop(d.ctx, pkt, DropSFOverflow, d.Name(), "")
		return
	}
	d.sfQueue = append(d.sfQueue, pkt)
	d.sfBytes += pkt.Size
	if !d.sfBusy {
		d.sfServe()
	}
}

func (d *Device) sfServe() {
	if len(d.sfQueue) == 0 {
		d.sfBusy = false
		return
	}
	d.sfBusy = true
	pkt := d.sfQueue[0]
	d.sfQueue = d.sfQueue[1:]
	d.sfBytes -= pkt.Size
	rate := d.Config.SFRate
	if rate == 0 {
		rate = 4 * units.Gbps
	}
	d.net.transit.Add(1)
	d.ctx.sched.AfterTag(tagDevice, rate.Serialize(pkt.Size), func() {
		d.net.transit.Add(^uint64(0))
		d.forward(pkt)
		d.sfServe()
	})
}

// checkModeSwitch degrades a cut-through device once any egress port's
// utilization over a 100 ms window exceeds the threshold — "under high
// load, the switch changed from cut-through mode to store-and-forward
// mode" (§6.1). The degradation is sticky: only a vendor fix (ResetMode
// with a sane configuration) restores loss-free service.
func (d *Device) checkModeSwitch() {
	if d.Degraded {
		return
	}
	const window = 100 * time.Millisecond
	now := d.ctx.sched.Now()
	snapshot := func() {
		d.utilCheck = now
		if d.utilBytes == nil {
			d.utilBytes = make(map[int]units.ByteSize, len(d.Ports()))
		}
		for _, p := range d.Ports() {
			d.utilBytes[p.Index] = p.Counters.RxBytes + p.Counters.TxBytes
		}
	}
	if d.utilBytes == nil {
		snapshot()
		return
	}
	elapsed := now.Sub(d.utilCheck)
	if elapsed < window {
		return
	}
	threshold := d.Config.ModeSwitchUtilization
	if threshold <= 0 {
		threshold = 0.5
	}
	for _, p := range d.Ports() {
		moved := p.Counters.RxBytes + p.Counters.TxBytes - d.utilBytes[p.Index]
		util := float64(moved) * 8 / float64(p.Rate()) / elapsed.Seconds()
		if util > threshold {
			d.Degraded = true
			return
		}
	}
	snapshot()
}
