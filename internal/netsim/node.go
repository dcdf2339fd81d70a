package netsim

import "repro/internal/sim"

// Node is anything that terminates links: hosts, routers, switches,
// firewalls. Concrete nodes embed NodeBase for bookkeeping and the
// routing table, and implement Receive.
type Node interface {
	// Name returns the unique node name within its Network.
	Name() string
	// Ports returns the node's attached ports in attachment order.
	Ports() []*Port
	// Receive handles a packet arriving on one of the node's ports.
	Receive(pkt *Packet, in *Port)
	// SetRoute pins the egress port toward a destination host.
	SetRoute(dst string, out *Port)
	// RouteTo returns the egress port toward a destination host, or nil
	// when the node has no route to it.
	RouteTo(dst string) *Port

	attach(p *Port)
	shard() *shardCtx
	setShard(c *shardCtx)
}

// NodeBase provides the name/port bookkeeping and the routing table
// shared by all node types. Custom nodes outside this package (e.g.,
// internal/firewall) embed it, call Init, and register themselves with
// Network.Register.
type NodeBase struct {
	name  string
	ports []*Port
	fib   map[string]*Port // destination host -> egress port
	ctx   *shardCtx        // execution domain; set at registration
}

// Init sets the node name; custom nodes call it before Network.Register.
func (n *NodeBase) Init(name string) { n.name = name }

// Name implements Node.
func (n *NodeBase) Name() string { return n.name }

// Ports implements Node.
func (n *NodeBase) Ports() []*Port { return n.ports }

// SetRoute implements Node. ComputeRoutes fills the table; a call after
// it overrides the computed route for that destination.
func (n *NodeBase) SetRoute(dst string, out *Port) {
	if n.fib == nil {
		n.fib = make(map[string]*Port)
	}
	n.fib[dst] = out
}

// RouteTo implements Node.
func (n *NodeBase) RouteTo(dst string) *Port { return n.fib[dst] }

// EventScheduler returns the scheduler the node's events execute on: its
// shard scheduler once the engine installs, the control scheduler
// before. Node-affine model code (transport timers, firewall service
// loops) must schedule here, never on Network.Sched directly — events
// on Network.Sched run only at engine barriers.
func (n *NodeBase) EventScheduler() *sim.Scheduler {
	if n.ctx == nil {
		return nil
	}
	return n.ctx.sched
}

func (n *NodeBase) shard() *shardCtx { return n.ctx }

func (n *NodeBase) setShard(c *shardCtx) {
	n.ctx = c
	for _, p := range n.ports {
		p.ctx = c
	}
}

func (n *NodeBase) attach(p *Port) {
	p.Index = len(n.ports)
	n.ports = append(n.ports, p)
}
