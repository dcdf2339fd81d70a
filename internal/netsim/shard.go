package netsim

// Sharded execution: the state the barrier-window engine (engine.go)
// threads through nodes and ports.
//
// Every network runs on the engine. The topology is partitioned into
// domains at its cut links (partition.go); each domain's nodes execute
// on a per-shard scheduler while n.Sched is the *control* scheduler:
// tickers, fault transitions, monitors, and samplers stay on it, and
// the engine runs control events only at synchronization barriers with
// every shard quiesced at exactly the control clock. That split is what
// lets experiment code run unchanged at any shard count — anything
// scheduled on n.Sched observes one globally consistent state.
//
// Output is a pure function of the event history, never of the
// partition:
//
//   - packet IDs come from per-node counters namespaced by the node's
//     registration rank;
//   - wire-loss draws come from per-port streams named by link creation
//     index and direction and rooted in the run seed (Network.Stream);
//   - deliveries over a cut link are ordered by (lane, seq), lanes
//     derived from the link's creation index;
//   - trace events are merged canonically at each barrier.

import (
	"math/rand"
	"strconv"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// shardCtx is one execution domain's context. Every node and port caches
// a pointer to its domain's context. The control context (scheduler
// n.Sched, rank 0) holds nodes until the engine installs, and any node
// registered after that.
type shardCtx struct {
	sched *sim.Scheduler
	// bus is the domain's trace-capture bus while a traced network runs
	// on the engine, or nil to fall through to the network's live bus.
	bus  *telemetry.Bus
	pool pktPool
	rank int // 0 = control; shards are 1..N

	// ledger is the context's share of the conservation ledger. Only the
	// context's own events write it — and control events, which run
	// while every shard is parked — so plain counters stay exact.
	ledger tally

	// Engine state for shard contexts: the trace capture behind bus and
	// the worker handshake channels (nil for a single shard).
	cap   *capture
	start chan sim.Time
	done  chan struct{}
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

// Stream returns a random stream private to one component: seeded from
// sim.DeriveSeed(kind, <run seed>, parts...), so it is independent of
// every other component's stream and of the order components are
// built, and a different run seed gives a different stream.
func (n *Network) Stream(kind string, parts ...string) *rand.Rand {
	return sim.NewRand(sim.DeriveSeed(append([]string{kind, strconv.FormatInt(n.seed, 10)}, parts...)...))
}

// ShardSchedulers returns the per-shard schedulers in rank order; none
// before the engine installs.
func (n *Network) ShardSchedulers() []*sim.Scheduler {
	return n.Schedulers()[1:]
}

// Schedulers returns every scheduler the network runs events on: the
// control scheduler first, then the shard schedulers in rank order.
// Totals over them — events processed, pending, per-component counts —
// are the same at any shard count, since every event executes exactly
// once on some scheduler.
func (n *Network) Schedulers() []*sim.Scheduler {
	out := []*sim.Scheduler{n.Sched}
	for _, sc := range n.engineShards() {
		out = append(out, sc.sched)
	}
	return out
}

// engineShards returns the shard contexts in rank order; none before
// the engine installs.
func (n *Network) engineShards() []*shardCtx {
	if n.engine == nil {
		return nil
	}
	return n.engine.shards
}

// MarkCut flags the link as a preferred partition boundary. Topology
// builders (internal/topo) mark the campus/DMZ/WAN boundary links; the
// planner cuts only marked links when any are marked.
func (l *Link) MarkCut() { l.cutHint = true }

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
