package netsim

// Sharded-execution support: the netsim side of the conservative
// parallel engine in internal/shard.
//
// A Network normally runs every node on its single scheduler (n.Sched).
// Under sharded execution the topology is partitioned into domains at
// configured cut links; each domain's nodes execute on a private
// per-shard scheduler while n.Sched is demoted to the *control*
// scheduler: tickers, fault transitions, monitors, and samplers stay on
// it, and the engine runs control events only at synchronization
// barriers with every shard quiesced at exactly the control clock. That
// split is what lets all existing experiment code shard transparently —
// anything scheduled on n.Sched observes the same globally consistent
// states it always did.
//
// This file owns the plumbing the engine needs:
//
//   - shardCtx: the execution context cached on every node and port —
//     scheduler, trace-capture bus, packet free-list, shard rank.
//     Unsharded networks have exactly one (the control context), so the
//     hot path is identical with and without sharding.
//   - ApplyShards: installs a partition — reassigns node/port contexts,
//     arms cut-link ports with cross-shard queues and ordering lanes,
//     and switches ID/RNG derivation to shard-count-invariant streams.
//   - ScheduleLaneDelivery: the barrier-drain entry point that turns a
//     ring entry back into a scheduled kernel event on the destination
//     shard, keyed by (lane, seq) so execution order is byte-identical
//     at any shard count.

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// shardCtx is one execution domain's context. Every node and port caches
// a pointer to its domain's context; the unsharded network has a single
// control context whose scheduler is n.Sched, so legacy behaviour falls
// out of the same code path.
type shardCtx struct {
	sched *sim.Scheduler
	// bus is the domain's trace-capture bus under sharded execution, or
	// nil to fall through to the network's live bus (the unsharded path).
	bus  *telemetry.Bus
	pool pktPool
	rank int // 0 = control/unsharded; shards are 1..N
}

// tracebus resolves the bus trace events from this context go to.
func (c *shardCtx) tracebus(n *Network) *telemetry.Bus {
	if c.bus != nil {
		return c.bus
	}
	return n.bus
}

// sctx returns the node's execution context, falling back to the control
// context for nodes that were never registered (defensive: Connect on an
// unregistered custom node).
func (n *Network) sctx(node Node) *shardCtx {
	if c := node.shard(); c != nil {
		return c
	}
	return n.ctl
}

// CrossQueue carries packets across a cut link from the sending shard to
// the receiving shard. internal/shard implements it as an SPSC ring; the
// producer side is the sending port's serialization path, the consumer
// side is the engine's barrier drain. Push must not allocate — it is on
// the cross-shard packet hot path.
type CrossQueue interface {
	Push(to *Port, pkt *Packet, at sim.Time, seq uint64)
}

// ShardDef assigns a set of nodes to one shard scheduler. The engine
// builds one per domain; Rank is the 1-based shard rank used for
// deterministic ordering and ID derivation.
type ShardDef struct {
	Rank  int
	Nodes []string
	Sched *sim.Scheduler
	// Bus, when non-nil, captures the shard's trace events for canonical
	// merging at barriers. Nil when the network has no trace bus.
	Bus *telemetry.Bus
}

// CutDef arms one cut-candidate link with ordering lanes and, when its
// ends live on different shards, cross-shard queues. Lanes must be
// derived from shard-count-invariant link identity (the engine uses the
// link's creation index), never from the partition.
type CutDef struct {
	Link *Link
	// LaneAB orders packets sent from the A-side port toward B; LaneBA
	// the reverse direction. Both must be nonzero and globally unique.
	LaneAB, LaneBA uint32
	// AtoB / BtoA are the cross-shard queues for each direction, nil when
	// both ends land on the same shard (the lane keys still apply, so the
	// delivery order is identical whether or not the link was actually
	// cut).
	AtoB, BtoA CrossQueue
}

// ErrShardCoverage reports a partition that does not cover the node set
// exactly.
type ErrShardCoverage struct{ Node, Problem string }

func (e *ErrShardCoverage) Error() string {
	return fmt.Sprintf("netsim: shard partition: node %q %s", e.Node, e.Problem)
}

// ApplyShards installs a partition on the network: every listed node
// (and its ports) is reassigned to its shard's context, cut links are
// armed, and packet-ID / loss-RNG derivation switches to per-host and
// per-port streams that do not depend on the shard count. controlBus,
// when non-nil, replaces the control context's live bus with a capture
// bus so control-plane emissions merge canonically with shard events.
//
// The node lists must cover the network's nodes exactly once;
// ErrShardCoverage reports any violation. Call at most once, before the
// first event runs.
func (n *Network) ApplyShards(shards []ShardDef, cuts []CutDef, controlBus *telemetry.Bus) error {
	seen := make(map[string]bool, len(n.nodes))
	for _, sd := range shards {
		for _, name := range sd.Nodes {
			if _, ok := n.nodes[name]; !ok {
				return &ErrShardCoverage{Node: name, Problem: "not in the network"}
			}
			if seen[name] {
				return &ErrShardCoverage{Node: name, Problem: "assigned to two shards"}
			}
			seen[name] = true
		}
	}
	for name := range n.nodes {
		if !seen[name] {
			return &ErrShardCoverage{Node: name, Problem: "missing from the partition"}
		}
	}

	if controlBus != nil {
		n.ctl.bus = controlBus
	}
	// Timers armed so far stay on the control scheduler while their
	// owners move to shards, whose workers may cancel them concurrently.
	n.Sched.SetShared()
	for i := range shards {
		sd := &shards[i]
		sc := &shardCtx{sched: sd.Sched, bus: sd.Bus, rank: sd.Rank}
		n.shardCtxs = append(n.shardCtxs, sc)
		for _, name := range sd.Nodes {
			n.nodes[name].setShard(sc)
		}
	}

	// Shard-count-invariant packet IDs: each host stamps IDs from its own
	// counter, namespaced by the host's rank in sorted name order. The
	// shared nextID counter would interleave differently at different
	// shard counts.
	hosts := n.Hosts()
	for i, h := range hosts {
		h.idBase = (uint64(i) + 1) << 40
	}

	// Devices that originate traffic in-network (interceptors such as
	// content caches) stamp IDs the same way, from their rank in sorted
	// device-name order. Bit 60 keeps the namespace disjoint from the
	// hosts' — host ranks never reach 2^20.
	var devs []string
	for name, node := range n.nodes {
		if _, ok := node.(*Device); ok {
			devs = append(devs, name)
		}
	}
	sort.Strings(devs)
	for i, name := range devs {
		n.nodes[name].(*Device).idBase = 1<<60 | uint64(i)<<40
	}

	// Shard-count-invariant wire-loss randomness: each port draws from a
	// stream derived from (link creation index, direction) instead of the
	// network's shared stream, whose draw order would depend on how the
	// partition interleaves links.
	for li, l := range n.links {
		l.A.lossRNG = sim.NewRand(sim.DeriveSeed("netsim/wire", strconv.Itoa(li), "a"))
		l.B.lossRNG = sim.NewRand(sim.DeriveSeed("netsim/wire", strconv.Itoa(li), "b"))
	}

	for _, c := range cuts {
		if c.LaneAB == 0 || c.LaneBA == 0 {
			return &ErrShardCoverage{Node: c.Link.describe(), Problem: "cut link with zero lane"}
		}
		c.Link.A.lane, c.Link.A.xq = c.LaneAB, c.AtoB
		c.Link.B.lane, c.Link.B.xq = c.LaneBA, c.BtoA
	}
	return nil
}

// ScheduleLaneDelivery converts a drained cross-shard ring entry back
// into a kernel event on the destination port's shard: the packet is
// delivered at its precomputed arrival time, ordered by the cut link's
// (lane, seq) key. Only the engine's barrier drain calls this, with the
// destination shard quiesced.
func (n *Network) ScheduleLaneDelivery(to *Port, pkt *Packet, at sim.Time, lane uint32, seq uint64) {
	to.ctx.sched.AtCallLane(tagLink, lane, seq, at, deliverCall, to, pkt)
}

// Runner replaces the network's run loop. The sharded engine installs
// itself here; Network.Run / RunFor delegate when set.
type Runner interface {
	Run()
	RunFor(d time.Duration)
}

// SetRunner installs a replacement run loop (the sharded engine).
func (n *Network) SetRunner(r Runner) { n.runner = r }

// DefaultShardPlan, when non-nil, is invoked once per network at its
// first Run/RunFor, before any event executes. Command-line tools set it
// (via internal/shard's planner) to thread a -shards flag through
// experiment code that constructs networks internally — the same
// mechanism DefaultTelemetry uses for -trace/-metrics.
var DefaultShardPlan func(*Network)

func (n *Network) ensureRunner() {
	if n.planApplied {
		return
	}
	n.planApplied = true
	if DefaultShardPlan != nil {
		DefaultShardPlan(n)
	}
}

// AddAuditor registers an extra invariant check to run during
// AuditInvariants. The sharded engine registers its ring-occupancy and
// shard-clock checks here so the conservation audit holds under
// sharding.
func (n *Network) AddAuditor(fn func() []error) {
	n.auditors = append(n.auditors, fn)
}

// ShardSchedulers returns the per-shard schedulers in rank order, or nil
// when the network is unsharded. Telemetry aggregation uses it to export
// shard kernel totals (sums are shard-count-invariant; per-shard series
// would not be).
func (n *Network) ShardSchedulers() []*sim.Scheduler {
	out := make([]*sim.Scheduler, 0, len(n.shardCtxs))
	for _, sc := range n.shardCtxs {
		out = append(out, sc.sched)
	}
	return out
}

// MarkCut flags the link as a preferred partition boundary. Topology
// builders (internal/topo) mark the campus/DMZ/WAN boundary links; the
// planner cuts only marked links when any are marked.
func (l *Link) MarkCut() { l.cutHint = true }

// CutHint reports whether MarkCut was called.
func (l *Link) CutHint() bool { return l.cutHint }

// MarkNoCut vetoes cutting this link regardless of hints. Fault
// injection calls it for its target links: an injected loss model may be
// stateful (bursty or periodic), and a stateful model shared by a cut
// link's two directions would need cross-shard draw ordering — so such
// links stay inside one shard, trading parallelism for exactness.
func (l *Link) MarkNoCut() { l.noCut = true }

// Cuttable reports whether the planner may cut this link: not vetoed,
// strictly positive propagation delay (the lookahead source), and a
// stateless loss model. Stateful models (PeriodicLoss, GilbertElliott)
// keep per-packet state shared by both directions; splitting the
// directions across shards would make the drop pattern depend on
// cross-shard execution order.
func (l *Link) Cuttable() bool {
	if l.noCut || l.Delay <= 0 {
		return false
	}
	switch l.Loss.(type) {
	case nil, NoLoss, RandomLoss:
		return true
	}
	return false
}

// sortedNodeNames returns every node name in sorted order — the
// deterministic iteration the partitioner builds domains from.
func (n *Network) sortedNodeNames() []string {
	names := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NodeNames returns every registered node name, sorted.
func (n *Network) NodeNames() []string { return n.sortedNodeNames() }
