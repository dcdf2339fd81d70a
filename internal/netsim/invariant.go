package netsim

import "fmt"

// PacketHolder is implemented by custom nodes that buffer packets for
// later forwarding (firewalls, inspection engines). The conservation
// audit counts held packets as in-flight; a buffering node that does not
// implement it will (correctly) fail the audit, because its buffered
// packets would otherwise look leaked.
type PacketHolder interface {
	// HeldPackets returns the number of packets the node is currently
	// holding, including any packet inside a scheduled service closure.
	HeldPackets() int
}

// SelfAuditor is implemented by custom nodes with internal accounting
// worth cross-checking (e.g., a firewall's queue byte counters).
// AuditInvariants collects their findings alongside the network's own.
type SelfAuditor interface {
	AuditInvariants() []error
}

// Conservation is the network-wide packet balance at a point in time.
// In any correct state Injected + Originated == Delivered + Dropped +
// Absorbed + InFlight: every packet that entered the network — through
// Host.Send or an in-network source (Device.Originate) — is either
// consumed by a transport handler, terminated in-network
// (Device.Absorb), destroyed through drop accounting, or still
// structurally present in a queue, a wire, or a holding node.
type Conservation struct {
	Injected   uint64 // packets stamped by Host.Send
	Originated uint64 // packets created in-network by Device.Originate
	Delivered  uint64 // packets consumed by a bound transport handler
	Dropped    uint64 // packets destroyed through countDrop
	Absorbed   uint64 // packets terminated in-network by Device.Absorb
	InFlight   uint64 // packets counted structurally in queues/wires/holders
}

// Balanced reports whether the ledger closes.
func (c Conservation) Balanced() bool {
	return c.Injected+c.Originated == c.Delivered+c.Dropped+c.Absorbed+c.InFlight
}

func (c Conservation) String() string {
	return fmt.Sprintf("injected %d + originated %d = delivered %d + dropped %d + absorbed %d + in-flight %d (Δ %d)",
		c.Injected, c.Originated, c.Delivered, c.Dropped, c.Absorbed, c.InFlight,
		int64(c.Injected)+int64(c.Originated)-int64(c.Delivered)-int64(c.Dropped)-int64(c.Absorbed)-int64(c.InFlight))
}

// tally is one execution context's column totals of the conservation
// ledger: the packets its events injected, originated, delivered,
// dropped and absorbed.
type tally struct {
	injected, originated, delivered, dropped, absorbed uint64
}

func (c *Conservation) add(t *tally) {
	c.Injected += t.injected
	c.Originated += t.originated
	c.Delivered += t.delivered
	c.Dropped += t.dropped
	c.Absorbed += t.absorbed
}

// Conservation computes the current packet balance. The five columns
// are the sums of every execution context's tally. InFlight is counted
// structurally — port queues, packets being serialized, packets on a
// wire (each port's arrivals line, or its outbox while it waits for the
// barrier drain to a peer on another shard), packets queued in or
// served by a degraded device's store-and-forward engine, and
// PacketHolder nodes — not derived from the other counters, so
// imbalance detects real leaks. Under sharded execution, call it only
// while the shards are parked: at rest, or from a control event. The
// shards write their tallies without synchronization, and the barrier
// handshake is what orders those writes before this read.
func (n *Network) Conservation() Conservation {
	var c Conservation
	c.add(&n.ctl.ledger)
	for _, sc := range n.engineShards() {
		c.add(&sc.ledger)
	}
	for _, node := range n.nodes {
		for _, p := range node.Ports() {
			c.InFlight += uint64(p.queue.Len() + p.prioQueue.Len() + p.arrivals.Len() + len(p.outbox))
			if p.transmitting {
				c.InFlight++
			}
		}
		if d, ok := node.(*Device); ok {
			c.InFlight += uint64(d.sfQueue.Len())
			if d.sfServing != nil {
				c.InFlight++
			}
		}
		if h, ok := node.(PacketHolder); ok {
			c.InFlight += uint64(h.HeldPackets())
		}
	}
	return c
}

// AuditInvariants checks the simulation invariants every finished run
// must satisfy and returns one error per violation:
//
//   - packet conservation: the Conservation ledger balances
//   - queue accounting: per-port byte counters match queued packets,
//     are non-negative, and respect the configured capacity
//   - fluid byte column: every port carrying fluid background traffic
//     balances offered = delivered + dropped + queued (see fluid.go)
//   - drop agreement: the DropStats total equals Conservation().Dropped
//   - clock sanity: simulation time is non-negative and never regressed
//
// Custom nodes implementing SelfAuditor contribute their own checks.
// The harness package runs this after every sweep-driven simulation.
func (n *Network) AuditInvariants() []error {
	var errs []error
	c := n.Conservation()
	if !c.Balanced() {
		errs = append(errs, fmt.Errorf("packet conservation violated: %v", c))
	}

	for _, name := range n.NodeNames() {
		node := n.nodes[name]
		for _, p := range node.Ports() {
			errs = append(errs, p.auditQueues()...)
			errs = append(errs, p.auditFluid()...)
		}
		if d, ok := node.(*Device); ok {
			sf := d.sfQueue.Bytes()
			if sf != d.sfBytes {
				errs = append(errs, fmt.Errorf("%s: store-and-forward pool accounting %d B != queued %d B", name, d.sfBytes, sf))
			}
		}
		if a, ok := node.(SelfAuditor); ok {
			errs = append(errs, a.AuditInvariants()...)
		}
	}

	var sites uint64
	for _, c := range n.DropStats {
		sites += c
	}
	if sites != c.Dropped {
		errs = append(errs, fmt.Errorf("drop accounting disagrees: DropStats %d, ledger dropped %d", sites, c.Dropped))
	}

	if n.Sched.Now() < 0 {
		errs = append(errs, fmt.Errorf("negative simulation clock %v", n.Sched.Now()))
	}
	if n.Sched.ClockRegressions > 0 {
		errs = append(errs, fmt.Errorf("simulation clock regressed %d times", n.Sched.ClockRegressions))
	}
	if n.engine != nil {
		errs = append(errs, n.engine.audit()...)
	}
	return errs
}

// auditQueues cross-checks a port's queue byte counters against the
// packets actually queued.
func (p *Port) auditQueues() []error {
	var errs []error
	name := fmt.Sprintf("%s port %d", p.Owner.Name(), p.Index)
	bulk, prio := p.queue.Bytes(), p.prioQueue.Bytes()
	if bulk != p.queueBytes {
		errs = append(errs, fmt.Errorf("%s: bulk queue accounting %d B != queued %d B", name, p.queueBytes, bulk))
	}
	if prio != p.prioBytes {
		errs = append(errs, fmt.Errorf("%s: priority queue accounting %d B != queued %d B", name, p.prioBytes, prio))
	}
	if p.queueBytes < 0 || p.prioBytes < 0 {
		errs = append(errs, fmt.Errorf("%s: negative queue depth (bulk %d B, prio %d B)", name, p.queueBytes, p.prioBytes))
	}
	// A capacity shrunk at runtime (SetQueueCap) may legally leave the
	// queue over the new capacity until grandfathered packets drain; the
	// effective limit until then is the occupancy captured at shrink time.
	// Comparing against the bare QueueCap here double-counted those
	// packets as violations even though admission control never let a
	// byte in illegally.
	limit := p.QueueCap
	if p.capFloor > limit {
		limit = p.capFloor
	}
	if p.QueueCap > 0 && (p.queueBytes > limit || p.prioBytes > limit) {
		errs = append(errs, fmt.Errorf("%s: queue depth exceeds capacity %d B (bulk %d B, prio %d B)", name, p.QueueCap, p.queueBytes, p.prioBytes))
	}
	return errs
}
