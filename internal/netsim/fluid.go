package netsim

// Fluid background coupling: the netsim side of the hybrid
// fluid/packet engine in internal/fluid.
//
// A fluid aggregate is a population of flows advanced in rate-space
// (Mathis steady-state dynamics) instead of packet-space. The fluid
// engine never schedules per-packet events; instead it installs a
// FluidQueue on each port its aggregates traverse and updates it at a
// coarse control-plane tick. The packet hot path couples to that state
// in two places, both gated on a nil check so packet-only runs are
// byte-identical to builds without this file:
//
//   - admission: fluid queue bytes occupy part of the egress buffer, so
//     packet flows see background-induced queue pressure (Port.Send
//     checks against the capacity the fluid backlog leaves free);
//   - service: the fluid share of the link slows packet serialization
//     by 1/(1-share), so full-fidelity TCP flows settle at the capacity
//     the background leaves — and the background, in turn, reads the
//     packet side's TxBytes counters at each tick to see how much
//     capacity the elephants took.
//
// FluidQueue also carries its own conservation column: cumulative
// offered = delivered + dropped + queued bytes, audited per port by
// AuditInvariants exactly like the packet ledger (see invariant.go).

import (
	"fmt"

	"repro/internal/units"
)

// maxFluidShare bounds the fraction of a link the fluid engine may
// claim, so packet serialization is never slowed more than 20x and the
// division in startTx is safe. The fluid engine clamps its published
// share to this as well; the port clamps again defensively.
const maxFluidShare = 0.95

// FluidQueue is one port's fluid background state, installed by
// internal/fluid and read by the packet hot path. All byte counters are
// integers so the conservation column balances exactly.
//
// Mutation discipline: only the fluid engine's control-plane tick
// writes these fields, and control events run with every shard
// quiesced (see engine.go), so the packet path may read them
// without synchronization at any shard count.
// The //dmzvet:ledger tags declare the conservation column to dmzvet's
// ledgerbalance analyzer: every path that moves one column field must
// move all four, or Balanced() silently stops closing.
type FluidQueue struct {
	// Bytes is the current fluid backlog occupying this port's egress
	// buffer, shared with the packet queues.
	Bytes units.ByteSize //dmzvet:ledger fluidq

	// Share is the fraction of the link rate the fluid traffic is
	// currently consuming, in [0, maxFluidShare]. Packet serialization
	// on this port is scaled by 1/(1-Share).
	Share float64

	// Conservation column: every fluid byte offered to this port is
	// eventually delivered downstream, dropped, or still queued.
	Offered   units.ByteSize //dmzvet:ledger fluidq
	Delivered units.ByteSize //dmzvet:ledger fluidq
	Dropped   units.ByteSize //dmzvet:ledger fluidq

	// Tap, when non-nil, observes every fluid settle on this port: the
	// bytes the aggregate moved downstream and the bytes it shed, as of
	// the tick that just completed. Fluid deposits never traverse the
	// per-packet interception path (there are no packets), so port-level
	// services — content caches sizing their budgets against background
	// load, future middleboxes metering aggregate throughput — would
	// otherwise be blind to them. The engine invokes the tap after the
	// ledger fields above are updated, from the control tick (all shards
	// quiesced), and the call is nil-gated: fluid-free and tap-free runs
	// execute identical instructions on the settle path.
	Tap func(delivered, dropped units.ByteSize)
}

// Balanced reports whether the port's fluid byte column closes.
func (f *FluidQueue) Balanced() bool {
	return f.Offered == f.Delivered+f.Dropped+f.Bytes
}

// AttachFluid installs a fluid queue on the port. The fluid engine
// calls it once per traversed port before the first event runs;
// attaching twice is a configuration bug.
func (p *Port) AttachFluid(f *FluidQueue) {
	if p.fluid != nil {
		panic(fmt.Sprintf("netsim: port %s/%d already has a fluid queue", p.Owner.Name(), p.Index))
	}
	p.fluid = f
}

// Fluid returns the port's fluid queue, or nil when no fluid aggregate
// traverses it.
func (p *Port) Fluid() *FluidQueue { return p.fluid }

// fluidCap returns the egress buffer capacity left for packet queues
// after the fluid backlog — the admission limit Port.Send enforces.
//
//dmz:hotpath
func (p *Port) fluidCap() units.ByteSize {
	c := p.QueueCap - p.fluid.Bytes
	if c < 0 {
		return 0
	}
	return c
}

// auditFluid checks the port's fluid conservation column. A fluid
// engine bug that loses or invents background bytes shows up here with
// the port named, exactly like a packet-ledger leak.
func (p *Port) auditFluid() []error {
	f := p.fluid
	if f == nil {
		return nil
	}
	var errs []error
	name := fmt.Sprintf("%s port %d (fluid)", p.Owner.Name(), p.Index)
	if !f.Balanced() {
		errs = append(errs, fmt.Errorf("%s: fluid byte column violated: offered %d != delivered %d + dropped %d + queued %d (Δ %d)",
			name, f.Offered, f.Delivered, f.Dropped, f.Bytes,
			int64(f.Offered)-int64(f.Delivered)-int64(f.Dropped)-int64(f.Bytes)))
	}
	if f.Bytes < 0 || f.Offered < 0 || f.Delivered < 0 || f.Dropped < 0 {
		errs = append(errs, fmt.Errorf("%s: negative fluid accounting (queued %d, offered %d, delivered %d, dropped %d)",
			name, f.Bytes, f.Offered, f.Delivered, f.Dropped))
	}
	if f.Bytes > p.QueueCap {
		errs = append(errs, fmt.Errorf("%s: fluid backlog %d B exceeds egress capacity %d B", name, f.Bytes, p.QueueCap))
	}
	if f.Share < 0 || f.Share > maxFluidShare {
		errs = append(errs, fmt.Errorf("%s: fluid share %v outside [0, %v]", name, f.Share, maxFluidShare))
	}
	return errs
}

// FluidLedger sums the per-port fluid byte columns: bytes offered to,
// delivered by, dropped at, and currently queued on every port a fluid
// aggregate traverses. Zero everywhere when no fluid engine is
// attached. Note offered/delivered count each byte once per traversed
// port (hop-bytes), mirroring how the packet ledger's port counters
// work.
func (n *Network) FluidLedger() (offered, delivered, dropped, queued units.ByteSize) {
	for _, name := range n.NodeNames() {
		for _, p := range n.nodes[name].Ports() {
			if f := p.fluid; f != nil {
				offered += f.Offered
				delivered += f.Delivered
				dropped += f.Dropped
				queued += f.Bytes
			}
		}
	}
	return
}
