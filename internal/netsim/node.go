package netsim

import "repro/internal/sim"

// Node is anything that terminates links: hosts, routers, switches,
// firewalls. Concrete nodes embed NodeBase for bookkeeping and implement
// Receive.
type Node interface {
	// Name returns the unique node name within its Network.
	Name() string
	// Ports returns the node's attached ports in attachment order.
	Ports() []*Port
	// Receive handles a packet arriving on one of the node's ports.
	Receive(pkt *Packet, in *Port)

	attach(p *Port)
	shard() *shardCtx
	setShard(c *shardCtx)
}

// NodeBase provides the name/port bookkeeping shared by all node types.
// Custom nodes outside this package (e.g., internal/firewall) embed it,
// call Init, and register themselves with Network.Register.
type NodeBase struct {
	name  string
	ports []*Port
	ctx   *shardCtx // execution domain; set at registration
}

// Init sets the node name; custom nodes call it before Network.Register.
func (n *NodeBase) Init(name string) { n.name = name }

// Name implements Node.
func (n *NodeBase) Name() string { return n.name }

// Ports implements Node.
func (n *NodeBase) Ports() []*Port { return n.ports }

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
