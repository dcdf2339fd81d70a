package netsim

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Defaults applied when configurations leave fields zero.
//
// DefaultHostQueue is effectively unbounded: a real host's transmit path
// backpressures the application (socket buffers + qdisc) rather than
// dropping its own packets, so excess in-flight data waits at the NIC.
// Loss in the simulator therefore happens where it happens in the paper:
// at mid-path devices with finite buffers, firewalls, and failing links —
// never silently inside the sending host. Override QueueA/QueueB to model
// a deliberately lossy host queue.
const (
	DefaultMTU          = 1500
	DefaultHostQueue    = units.ByteSize(1) << 56
	DefaultDeviceBuffer = 1 * units.MB
)

// LinkConfig describes a link created by Network.Connect.
type LinkConfig struct {
	Rate  units.BitRate
	Delay time.Duration
	Loss  LossModel
	MTU   int // zero defaults to 1500; set 9000 for jumbo-frame paths

	// QueueA / QueueB override the egress buffer at the respective end.
	// Zero uses the owner's default (DeviceConfig.EgressBuffer for
	// devices, DefaultHostQueue for hosts).
	QueueA, QueueB units.ByteSize
}

// Network owns a simulated topology: the control scheduler, nodes, and
// links. It runs on the sharded engine (engine.go): node events execute
// on per-shard schedulers, and Sched is the *control* scheduler —
// tickers, fault transitions, monitors — whose events run only at
// engine barriers; see shard.go.
type Network struct {
	Sched *sim.Scheduler

	seed    int64 // the run seed every Stream is rooted in
	nodes   map[string]Node
	hostSet map[string]*Host
	links   []*Link

	// DropStats tallies every packet the network destroyed, by
	// structured (reason, location) site. It is experiment bookkeeping —
	// the ground truth for soft failures — not something devices can
	// see. It is guarded by dropMu: drops arrive from several shard
	// goroutines whose per-site increments commute.
	DropStats map[DropSite]uint64

	// DropHook, when set, observes every dropped packet. Tests use it to
	// assert on loss behaviour. It is invoked under dropMu, so hooks are
	// serialized across shards.
	DropHook func(pkt *Packet, site DropSite)

	dropMu sync.Mutex

	// Conservation accounting (see invariant.go) has no network-wide
	// counter: every execution context tallies the packets its own
	// events inject, originate, deliver, drop and absorb, and
	// Conservation sums the tallies. Packets still inside the network
	// are counted where they sit: queues, wires, outboxes and holders.

	// ctl is the control execution context: scheduler Sched, the
	// network-level packet free-list and ledger tally, rank 0. Nodes
	// hold it until the engine installs its partition.
	ctl    *shardCtx
	engine *Engine // nil until the first run or InstallShards
	shards int     // the count the first run installs; see SetShards

	// Telemetry wiring. bus is nil until AttachTelemetry; all emit
	// sites guard with bus.Enabled(), which is nil-receiver-safe, so a
	// network without telemetry pays one branch per would-be event.
	tele *telemetry.Telemetry
	bus  *telemetry.Bus

	// collectors are registered on every plane AttachTelemetry
	// attaches; see RegisterCollector.
	collectors []keyedCollector
}

type keyedCollector struct {
	key string
	fn  telemetry.Collector
}

// New creates an empty network whose random streams are rooted in seed
// (see Stream). It has no telemetry until AttachTelemetry.
func New(seed int64) *Network {
	n := &Network{
		Sched:     sim.New(),
		seed:      seed,
		nodes:     make(map[string]Node),
		hostSet:   make(map[string]*Host),
		DropStats: make(map[DropSite]uint64),
	}
	n.ctl = &shardCtx{sched: n.Sched}
	return n
}

// AttachTelemetry wires the network into a telemetry plane: trace
// events flow to t.Bus, the network's state becomes visible to
// registry snapshots via a collector, the schedulers are instrumented,
// collectors registered while no plane was attached join the registry,
// and — when t.SampleInterval is set — a sampler starts on this
// network's control scheduler.
//
// Attaching a later network to the same Telemetry supersedes the
// earlier one's scheduler gauges and state collector (keyed
// registration), which is what sequential experiment runs want. Attach
// before anything is dialed or scheduled: the tcp, perfsonar and fault
// builders read the plane when they run, and the first run's install
// captures trace events for the canonical merge only if it is there.
func (n *Network) AttachTelemetry(t *telemetry.Telemetry) {
	n.tele = t
	n.bus = t.Bus
	telemetry.InstrumentScheduler(t.Registry, n.Schedulers)
	t.Registry.RegisterCollector("netsim", n.collectMetrics)
	for _, c := range n.collectors {
		t.Registry.RegisterCollector(c.key, c.fn)
	}
	if t.SampleInterval > 0 {
		t.StartSampler(n.Sched, t.SampleInterval)
	}
}

// RegisterCollector adds fn to the registry snapshots of the network's
// telemetry plane under key: at once when a plane is attached, else
// when AttachTelemetry attaches one. Components built before the plane
// (a topology's content cache) register through it.
func (n *Network) RegisterCollector(key string, fn telemetry.Collector) {
	n.collectors = append(n.collectors, keyedCollector{key, fn})
	if n.tele != nil {
		n.tele.Registry.RegisterCollector(key, fn)
	}
}

// Telemetry returns the attached telemetry plane, or nil.
func (n *Network) Telemetry() *telemetry.Telemetry { return n.tele }

// TelemetryBus returns the attached trace bus. The result may be nil;
// all Bus methods are nil-safe, so callers may use it unconditionally.
func (n *Network) TelemetryBus() *telemetry.Bus { return n.ctl.tracebus(n) }

// collectMetrics exposes per-port counters, live queue state, device
// forwarding counts, link wire drops, and structured drop tallies to
// registry snapshots. It runs at snapshot time only, so instrumenting
// a network adds zero cost to the packet hot path.
func (n *Network) collectMetrics(emit telemetry.EmitFunc) {
	for _, name := range n.NodeNames() {
		node := n.nodes[name]
		for _, p := range node.Ports() {
			l := telemetry.Labels{"node": name, "port": strconv.Itoa(p.Index)}
			emit("netsim_port_tx_packets", l, float64(p.Counters.TxPackets))
			emit("netsim_port_rx_packets", l, float64(p.Counters.RxPackets))
			emit("netsim_port_tx_bytes", l, float64(p.Counters.TxBytes))
			emit("netsim_port_rx_bytes", l, float64(p.Counters.RxBytes))
			emit("netsim_port_queue_drops", l, float64(p.Counters.QueueDrops))
			emit("netsim_port_queue_bytes", l, float64(p.QueueBytes()))
			emit("netsim_port_queue_pkts", l, float64(p.QueueLen()))
		}
		if d, ok := node.(*Device); ok {
			emit("netsim_device_forwarded", telemetry.Labels{"node": name}, float64(d.Forwarded))
		}
	}
	for i, l := range n.links {
		emit("netsim_link_wire_drops",
			telemetry.Labels{"link": l.describe(), "index": strconv.Itoa(i)},
			float64(l.WireDrops()))
	}
	for _, sc := range n.DropSites() {
		emit("netsim_drops_total",
			telemetry.Labels{"reason": sc.Site.Reason.String(), "node": sc.Site.Node},
			float64(sc.Count))
	}
}

func (n *Network) register(name string, node Node) {
	if _, ok := n.nodes[name]; ok {
		panic(fmt.Sprintf("netsim: duplicate node name %q", name))
	}
	node.setShard(n.ctl)
	n.nodes[name] = node
}

// Register adds a custom node (one embedding NodeBase, with Init already
// called) to the network. Host and Device constructors register
// automatically; only external node types need this.
func (n *Network) Register(name string, node Node) { n.register(name, node) }

// CountDropReason records a packet destroyed by a custom node at the
// (reason, node) site. detail is reason-specific context carried only by
// the trace event: the destination for no-route drops, the filter name
// for filtered ones. When node names a registered node, the drop is
// stamped and traced in that node's execution context — which is what
// keeps custom middleboxes (internal/firewall) correct under sharded
// execution.
func (n *Network) CountDropReason(pkt *Packet, reason DropReason, node, detail string) {
	sc := n.ctl
	if nd, ok := n.nodes[node]; ok {
		sc = n.sctx(nd)
	}
	n.countDrop(sc, pkt, reason, node, detail)
}

// NewHost adds a host to the network.
func (n *Network) NewHost(name string) *Host {
	h := &Host{
		NodeBase: NodeBase{name: name},
		net:      n,
		idBase:   n.idBase(),
		handlers: make(map[protoPort]Handler),
	}
	n.register(name, h)
	n.hostSet[name] = h
	return h
}

// NewDevice adds a router or switch to the network.
func (n *Network) NewDevice(name string, cfg DeviceConfig) *Device {
	if cfg.EgressBuffer == 0 {
		cfg.EgressBuffer = DefaultDeviceBuffer
	}
	d := &Device{
		NodeBase: NodeBase{name: name},
		Config:   cfg,
		net:      n,
		idBase:   n.idBase(),
	}
	n.register(name, d)
	return d
}

// idBase namespaces the packet IDs a new node stamps by its
// registration rank, so IDs never depend on which shard runs the node.
func (n *Network) idBase() uint64 { return uint64(len(n.nodes)+1) << 40 }

// Node returns a registered node by name, or nil.
func (n *Network) Node(name string) Node { return n.nodes[name] }

// Host returns a registered host by name, or nil.
func (n *Network) Host(name string) *Host { return n.hostSet[name] }

// Hosts returns all hosts, sorted by name.
func (n *Network) Hosts() []*Host {
	names := make([]string, 0, len(n.hostSet))
	for name := range n.hostSet {
		names = append(names, name)
	}
	sort.Strings(names)
	hosts := make([]*Host, len(names))
	for i, name := range names {
		hosts[i] = n.hostSet[name]
	}
	return hosts
}

// NodeNames returns every registered node name, sorted.
func (n *Network) NodeNames() []string {
	names := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// LinkBetween returns the first link joining the two named nodes, in
// either orientation, or nil when none exists. Fault scenarios use it to
// resolve link references by endpoint names.
func (n *Network) LinkBetween(a, b string) *Link {
	for _, l := range n.links {
		la, lb := l.Ends()
		if (la == a && lb == b) || (la == b && lb == a) {
			return l
		}
	}
	return nil
}

// Connect joins two nodes with a full-duplex link and returns it.
func (n *Network) Connect(a, b Node, cfg LinkConfig) *Link {
	if cfg.MTU == 0 {
		cfg.MTU = DefaultMTU
	}
	if cfg.Rate <= 0 {
		panic("netsim: Connect requires a positive rate")
	}
	l := &Link{Rate: cfg.Rate, Delay: cfg.Delay, Loss: cfg.Loss, MTU: cfg.MTU, net: n}
	pa := &Port{Owner: a, Link: l, QueueCap: n.defaultQueue(a, cfg.Rate, cfg.QueueA), net: n, ctx: n.sctx(a)}
	pb := &Port{Owner: b, Link: l, QueueCap: n.defaultQueue(b, cfg.Rate, cfg.QueueB), net: n, ctx: n.sctx(b)}
	pa.peer, pb.peer = pb, pa
	// Each direction draws wire loss from its own stream, named by the
	// link's creation index, so draws never depend on how shards
	// interleave links.
	li := strconv.Itoa(len(n.links))
	pa.lossRNG, pb.lossRNG = n.Stream("netsim/wire", li, "a"), n.Stream("netsim/wire", li, "b")
	pa.arrivals = pa.ctx.sched.NewLine(tagLink, 0, deliverCall, pa)
	pb.arrivals = pb.ctx.sched.NewLine(tagLink, 0, deliverCall, pb)
	l.A, l.B = pa, pb
	l.desc = a.Name() + "<->" + b.Name()
	a.attach(pa)
	b.attach(pb)
	n.links = append(n.links, l)
	return l
}

func (n *Network) defaultQueue(node Node, rate units.BitRate, override units.ByteSize) units.ByteSize {
	if override > 0 {
		return override
	}
	d, ok := node.(*Device)
	if !ok {
		return DefaultHostQueue
	}
	// A port's buffer allocation scales with its rate: a 1G access port
	// on a deep-buffered chassis does not get the whole 64 MB pool. A
	// 50 ms-at-line-rate cap keeps low-rate ports from turning into
	// quarter-second bufferbloat queues while leaving fast science
	// ports their full depth. Explicit QueueA/QueueB overrides bypass
	// the cap.
	buf := d.Config.EgressBuffer
	if cap := rate.BytesIn(50 * time.Millisecond); cap > 0 && cap < buf {
		buf = cap
	}
	return buf
}

// countDrop is the single drop-accounting sink. sc is the execution
// context of the code destroying the packet: its clock stamps the trace
// event, its capture bus receives it, and its ledger tally counts it,
// so drops order correctly under sharded execution. The site tally is
// shared by every context and commutative, so a mutex (not ordering) is
// all it needs.
func (n *Network) countDrop(sc *shardCtx, pkt *Packet, reason DropReason, node, detail string) {
	site := DropSite{Reason: reason, Node: node}
	n.dropMu.Lock()
	n.DropStats[site]++
	if n.DropHook != nil {
		n.DropHook(pkt, site)
	}
	n.dropMu.Unlock()
	sc.ledger.dropped++
	n.emitDrop(sc, pkt, site, detail)
}

// emitDrop publishes the drop's trace event when a bus listens; the
// Enabled() guard returns before any formatting in the untraced steady
// state.
//
//dmzvet:coldpath emission is guarded by bus.Enabled(); steady state returns before allocating
func (n *Network) emitDrop(sc *shardCtx, pkt *Packet, site DropSite, detail string) {
	bus := sc.tracebus(n)
	if !bus.Enabled() {
		return
	}
	kind := telemetry.EvDrop
	if site.Reason == DropWireLoss {
		kind = telemetry.EvWireLoss
	}
	bus.Emit(telemetry.Event{
		At:     sc.sched.Now(),
		Kind:   kind,
		Node:   site.Node,
		Flow:   pkt.Flow.String(),
		Packet: pkt.ID,
		Bytes:  int64(pkt.Size),
		Reason: site.Reason.String(),
		Detail: detail,
	})
}

// DropSiteCount is one (reason, node) site's drop tally.
type DropSiteCount struct {
	Site  DropSite
	Count uint64
}

// DropSites returns the structured drop tallies sorted by reason then
// node. Renderers and metric exporters must use it instead of ranging
// over the DropStats map, whose iteration order is randomized.
func (n *Network) DropSites() []DropSiteCount {
	out := make([]DropSiteCount, 0, len(n.DropStats))
	for site, c := range n.DropStats {
		out = append(out, DropSiteCount{Site: site, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site.Reason != out[j].Site.Reason {
			return out[i].Site.Reason < out[j].Site.Reason
		}
		return out[i].Site.Node < out[j].Site.Node
	})
	return out
}

// ComputeRoutes fills every node's routing table with shortest-path
// (hop-count) next hops toward every host, breaking ties by node name so
// runs are deterministic. Call it after the topology is fully built; it
// may be called again after topology changes.
func (n *Network) ComputeRoutes() {
	type edge struct {
		neighbor Node
		local    *Port // port on the near node
		remote   *Port // port on the neighbor
	}
	adj := make(map[string][]edge, len(n.nodes))
	for _, l := range n.links {
		an, bn := l.A.Owner, l.B.Owner
		adj[an.Name()] = append(adj[an.Name()], edge{bn, l.A, l.B})
		adj[bn.Name()] = append(adj[bn.Name()], edge{an, l.B, l.A})
	}
	for name := range adj {
		es := adj[name]
		sort.Slice(es, func(i, j int) bool {
			if es[i].neighbor.Name() != es[j].neighbor.Name() {
				return es[i].neighbor.Name() < es[j].neighbor.Name()
			}
			return es[i].local.Index < es[j].local.Index
		})
		adj[name] = es
	}

	// BFS from each destination host; record, at every reached node, the
	// port leading one hop closer to the destination.
	for dstName, dst := range n.hostSet {
		visited := map[string]bool{dstName: true}
		queue := []Node{dst}
		towards := make(map[string]*Port) // node -> egress port toward dst
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range adj[cur.Name()] {
				if visited[e.neighbor.Name()] {
					continue
				}
				visited[e.neighbor.Name()] = true
				// From the neighbor, the path to dst goes out e.remote.
				towards[e.neighbor.Name()] = e.remote
				queue = append(queue, e.neighbor)
			}
		}
		for nodeName, port := range towards {
			n.nodes[nodeName].SetRoute(dstName, port)
		}
	}
}

// walk follows the installed routing tables from src toward dst,
// calling hop with each egress port in order. It reports whether dst
// was reached; it is false when an endpoint is unknown, a node on the
// way has no route, or the route needs more than MaxHops hops (a
// loop). hop may already have run for a walk that then fails.
func (n *Network) walk(src, dst string, hop func(out *Port)) bool {
	cur := n.nodes[src]
	if cur == nil || n.nodes[dst] == nil {
		return false
	}
	for hops := 0; cur.Name() != dst; hops++ {
		out := cur.RouteTo(dst)
		if out == nil || hops == MaxHops {
			return false
		}
		hop(out)
		cur = out.Peer().Owner
	}
	return true
}

// Path returns the node names a packet from src to dst traverses,
// inclusive of both endpoints, following the installed routing tables.
// It returns nil if no route exists or a loop is detected.
func (n *Network) Path(src, dst string) []string {
	path := []string{src}
	if !n.walk(src, dst, func(out *Port) { path = append(path, out.Peer().Owner.Name()) }) {
		return nil
	}
	return path
}

// PathInfo returns the links along the routed path from src to dst, in
// order, or nil when no path exists.
func (n *Network) PathInfo(src, dst string) []*Link {
	var links []*Link
	if !n.walk(src, dst, func(out *Port) { links = append(links, out.Link) }) {
		return nil
	}
	return links
}

// PathBottleneck returns the lowest link rate on the routed path, or 0
// when no path exists.
func (n *Network) PathBottleneck(src, dst string) units.BitRate {
	var min units.BitRate
	if !n.walk(src, dst, func(out *Port) {
		if min == 0 || out.Link.Rate < min {
			min = out.Link.Rate
		}
	}) {
		return 0
	}
	return min
}

// PathRTT returns twice the summed propagation delay of the routed path —
// the base round-trip time, excluding serialization and queueing — or 0
// when no path exists.
func (n *Network) PathRTT(src, dst string) time.Duration {
	var sum time.Duration
	if !n.walk(src, dst, func(out *Port) { sum += out.Link.Delay }) {
		return 0
	}
	return 2 * sum
}

// PathMTU returns the smallest MTU along the routed path between two
// hosts, or zero when no path exists.
func (n *Network) PathMTU(src, dst string) int {
	mtu := 0
	if !n.walk(src, dst, func(out *Port) {
		if mtu == 0 || out.Link.MTU < mtu {
			mtu = out.Link.MTU
		}
	}) {
		return 0
	}
	return mtu
}

// Run executes the simulation until no events remain.
func (n *Network) Run() { n.engineToRun().run(-1) }

// RunFor advances the simulation by d.
func (n *Network) RunFor(d time.Duration) { n.engineToRun().run(n.Sched.Now().Add(d)) }

// Now returns the control clock: the time of the last engine barrier.
// Between barriers it lags the shards, so data-path code — anything
// running inside a node's events — must read Host.Now or Port.Now.
func (n *Network) Now() sim.Time { return n.Sched.Now() }
