// Package firewall models the enterprise firewall appliance whose
// pathologies motivate the Science DMZ (§2, §5, §6.2, §6.3).
//
// Two structural properties of real firewalls are reproduced, not
// approximated by a throughput fudge factor:
//
//  1. Internal fan-in of slow inspection processors. A firewall markets
//     "10G aggregate" by ganging N processors that each inspect at a
//     fraction of line rate, hashing flows across them. Business traffic
//     (thousands of slow flows) spreads nicely; a single fast science
//     flow lands on ONE processor, whose small input buffer overflows
//     whenever the sending host bursts at line rate — the paper's §5
//     explanation of why firewalls break TCP at high speed.
//
//  2. TCP option sanitization. "Sequence checking" style deep inspection
//     rewrites TCP headers; the Penn State case (§6.2) hinged on a
//     firewall clearing the RFC 1323 window-scale option from SYNs,
//     silently capping every connection's window at 64 KB.
//
// A Firewall is a netsim.Node, so it drops into any topology exactly
// like a switch would.
package firewall

import (
	"fmt"
	"time"

	"repro/internal/acl"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/units"
)

// tagFirewall attributes inspection-engine events in scheduler telemetry.
var tagFirewall = sim.TagFor("firewall")

// Config describes a firewall appliance.
type Config struct {
	// Processors is the number of parallel inspection engines. Zero
	// defaults to 8.
	Processors int

	// ProcRate is each engine's inspection rate. Zero defaults to
	// 1.25 Gb/s (8 engines x 1.25G = "10G aggregate" marketing).
	ProcRate units.BitRate

	// InputBuffer is each engine's input queue in bytes. Zero defaults
	// to 256 KB — adequate for business flows, fatal for line-rate
	// bursts.
	InputBuffer units.ByteSize

	// SequenceChecking enables TCP header sanitization, which strips the
	// window-scale option from SYN/SYN-ACK segments (the §6.2 bug).
	SequenceChecking bool

	// SessionSetup is extra latency charged to the first packet of each
	// new session (policy lookup, session-table insert).
	SessionSetup time.Duration

	// Rules is the firewall policy; nil permits everything. Unlike ACLs,
	// rule evaluation happens after the inspection-engine queue, so even
	// permitted traffic pays the processing cost.
	Rules *acl.List
}

func (c Config) withDefaults() Config {
	if c.Processors == 0 {
		c.Processors = 8
	}
	if c.ProcRate == 0 {
		c.ProcRate = 1250 * units.Mbps
	}
	if c.InputBuffer == 0 {
		c.InputBuffer = 256 * units.KB
	}
	return c
}

// Counters is the statistics view an administrator would see.
type Counters struct {
	Inspected    uint64 // packets fully processed
	BufferDrops  uint64 // packets dropped at engine input buffers
	PolicyDrops  uint64 // packets denied by rules
	Sessions     int    // sessions created
	OptionsFixed uint64 // SYN options rewritten by sequence checking
}

// processor is one firewall engine's input queue and service state.
// Queued packets and the one under inspection are audited:
// Firewall.HeldPackets reports them to the conservation invariant as
// structurally in-flight.
//
//dmzvet:holder
type processor struct {
	fw        *Firewall
	queue     netsim.PacketFIFO
	queueSize units.ByteSize
	serving   *netsim.Packet // under inspection; nil when the engine is idle
}

// Firewall is a stateful inspection appliance between two or more ports.
type Firewall struct {
	netsim.NodeBase

	Config Config
	Stats  Counters

	net      *netsim.Network
	procs    []*processor
	sessions map[netsim.FlowKey]sim.Time // canonical flow -> created

	// Bypass, when set, skips inspection entirely for matching packets —
	// installed by the SDN controller for verified large flows (§7.3).
	Bypass func(*netsim.Packet) bool
}

// New creates a firewall node in the network.
func New(net *netsim.Network, name string, cfg Config) *Firewall {
	cfg = cfg.withDefaults()
	fw := &Firewall{
		Config:   cfg,
		net:      net,
		sessions: make(map[netsim.FlowKey]sim.Time),
	}
	fw.Init(name)
	for i := 0; i < cfg.Processors; i++ {
		fw.procs = append(fw.procs, &processor{fw: fw})
	}
	net.Register(name, fw)
	return fw
}

// flowHash is 32-bit FNV-1a over the key's source and destination names
// and its two ports, big-endian: the bytes the firewall has always
// hashed, so every flow keeps its inspection engine.
func flowHash(k netsim.FlowKey) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(k.Src); i++ {
		h = (h ^ uint32(k.Src[i])) * prime
	}
	for i := 0; i < len(k.Dst); i++ {
		h = (h ^ uint32(k.Dst[i])) * prime
	}
	for _, b := range [4]byte{byte(k.SrcPort >> 8), byte(k.SrcPort), byte(k.DstPort >> 8), byte(k.DstPort)} {
		h = (h ^ uint32(b)) * prime
	}
	return h
}

// Receive implements netsim.Node: hash the flow to an inspection engine
// and queue the packet there.
//
//dmz:hotpath
func (f *Firewall) Receive(pkt *netsim.Packet, in *netsim.Port) {
	pkt.Hops++
	if f.Bypass != nil && f.Bypass(pkt) {
		f.forward(pkt)
		return
	}
	p := f.procs[flowHash(pkt.Flow.Canonical())%uint32(len(f.procs))]

	if p.queueSize+pkt.Size > f.Config.InputBuffer {
		f.Stats.BufferDrops++
		f.net.CountDropReason(pkt, netsim.DropFirewallOverflow, f.Name(), "")
		return
	}
	p.queue.Push(pkt)
	p.queueSize += pkt.Size
	if p.serving == nil {
		p.serveNext()
	}
}

// serveNext starts inspecting the engine's next queued packet, if any.
func (p *processor) serveNext() {
	pkt := p.queue.Pop()
	if pkt == nil {
		return
	}
	p.serving = pkt
	p.queueSize -= pkt.Size
	d := p.fw.Config.ProcRate.Serialize(pkt.Size)
	if extra := p.fw.sessionDelay(pkt); extra > 0 {
		d += extra
	}
	p.fw.EventScheduler().AfterCall(tagFirewall, d, inspectedCall, p, nil)
}

// inspectedCall is the static callback for a packet leaving an
// inspection engine: the engine finishes it, then starts the next.
//
//dmz:hotpath
func inspectedCall(a, _ any) {
	p := a.(*processor)
	p.fw.finish(p.serving)
	p.serving = nil
	p.serveNext()
}

// sessionDelay charges session setup for the first packet of a new flow
// and registers the session.
func (f *Firewall) sessionDelay(pkt *netsim.Packet) time.Duration {
	key := pkt.Flow.Canonical()
	if _, ok := f.sessions[key]; ok {
		return 0
	}
	f.sessions[key] = f.EventScheduler().Now()
	f.Stats.Sessions++
	return f.Config.SessionSetup
}

// finish applies policy and sanitization after inspection, then forwards.
func (f *Firewall) finish(pkt *netsim.Packet) {
	f.Stats.Inspected++
	if f.Config.Rules != nil && !f.Config.Rules.Check(pkt, nil) {
		f.Stats.PolicyDrops++
		f.net.CountDropReason(pkt, netsim.DropFirewallPolicy, f.Name(), "")
		return
	}
	if f.Config.SequenceChecking && pkt.Flags.Has(netsim.FlagSYN) && pkt.WScale != netsim.NoWScale {
		pkt.WScale = netsim.NoWScale
		f.Stats.OptionsFixed++
	}
	f.forward(pkt)
}

func (f *Firewall) forward(pkt *netsim.Packet) {
	out := f.RouteTo(pkt.Flow.Dst)
	if out == nil {
		f.net.CountDropReason(pkt, netsim.DropNoRoute, f.Name(), pkt.Flow.Dst)
		return
	}
	out.Send(pkt)
}

// SessionCount returns the number of active sessions in the state table.
func (f *Firewall) SessionCount() int { return len(f.sessions) }

// HeldPackets implements netsim.PacketHolder: packets waiting in engine
// input queues plus the one each busy engine is inspecting.
func (f *Firewall) HeldPackets() int {
	held := 0
	for _, p := range f.procs {
		held += p.queue.Len()
		if p.serving != nil {
			held++
		}
	}
	return held
}

// AuditInvariants implements netsim.SelfAuditor: each engine's byte
// counter must match the packets actually queued.
func (f *Firewall) AuditInvariants() []error {
	var errs []error
	for i, p := range f.procs {
		if queued := p.queue.Bytes(); queued != p.queueSize {
			errs = append(errs, fmt.Errorf("%s engine %d: input buffer accounting %d B != queued %d B",
				f.Name(), i, p.queueSize, queued))
		}
	}
	return errs
}
