// Package fluid is the hybrid fluid/packet engine: background traffic
// advanced in rate-space while a handful of full-fidelity TCP elephants
// stay packet-accurate.
//
// The paper's traffic matrix (§2, §5) is a vast population of small
// "business" flows plus a few enormous science flows. Simulating every
// mouse per-packet caps the background at a few thousand flows; this
// package replaces the mice with fluid aggregates — (src, dst, class,
// arrival-rate, size-distribution) populations whose offered load
// evolves via the Mathis steady-state model (internal/analytic) — so
// the per-event cost is independent of the flow count. 10⁵–10⁶
// concurrent mice cost one control-plane tick every Config.Tick.
//
// Coupling is two-way through shared per-port buffer state
// (netsim.FluidQueue):
//
//   - fluid → packet: the aggregate backlog occupies egress buffer
//     (shrinking packet admission capacity) and the fluid share of the
//     link slows packet serialization by 1/(1-share), so elephants see
//     background-induced queueing and loss;
//   - packet → fluid: each tick reads the ports' TxBytes counters to
//     measure the packet rate, and grants the fluid class only the
//     capacity a fair split leaves, so aggregates see elephant-induced
//     loss back (the drop fraction feeds the Mathis cap on per-flow
//     rate next tick).
//
// Determinism: the tick runs on the network's control scheduler, which
// fires only at the sharded engine's barrier windows with every shard
// quiesced — so hybrid runs are byte-identical at any -shards N without
// locks, and aggregates draw from per-name streams rooted in the run
// seed (netsim.Network.Stream) so results do not depend on registration
// order of unrelated components.
package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/analytic"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/units"
)

var tagFluid = sim.TagFor("fluid")

// Defaults for Config zero values.
const (
	DefaultTick     = 10 * time.Millisecond
	DefaultAlpha    = 0.3
	DefaultMSS      = 1460 * units.Byte
	DefaultMaxShare = 0.95
)

// Config tunes the fluid engine.
type Config struct {
	// Tick is the fluid update interval. Coarser ticks are cheaper but
	// track elephant dynamics more loosely. Zero defaults to 10ms.
	Tick time.Duration

	// Alpha is the EWMA gain for per-port drop fractions (the loss
	// signal feeding the Mathis model). Zero defaults to 0.3.
	Alpha float64

	// MSS is the segment size used in the Mathis per-flow rate. Zero
	// defaults to 1460 B.
	MSS units.ByteSize

	// MaxShare caps the fraction of any link the fluid class may take,
	// keeping packet serialization finite. Zero defaults to 0.95 (the
	// same bound netsim clamps and audits against).
	MaxShare float64

	// PacketFlows is the flow-count weight of the packet class when
	// splitting a contended link: TCP fairness is per-flow, so 10⁵
	// fluid mice against one elephant take ~all of their demand, not
	// half the link. The paper's regime is "a handful of elephants", so
	// this defaults to 1; raise it when packet flows are numerous
	// (e.g., an LHC mesh). Used only on ports whose aggregates declare
	// a Flows population; otherwise the split is rate-proportional.
	PacketFlows float64
}

// AggregateConfig describes one fluid aggregate: a population of flows
// between two hosts advanced in rate-space.
type AggregateConfig struct {
	// Name identifies the aggregate; it must be unique within the
	// engine because the aggregate's RNG stream is derived from it
	// (Network.Stream("fluid/aggregate", Name)).
	Name string

	// Src, Dst are host names; the aggregate follows the routed path
	// between them, the same path packets take.
	Src, Dst string

	// FlowsPerSecond is the arrival rate of the flow population.
	FlowsPerSecond float64

	// MeanSize is the mean flow size. Zero defaults to 100 KB,
	// matching flowgen.Business.
	MeanSize units.ByteSize

	// Flows is the concurrent flow population. When positive, the
	// aggregate's offered load is capped at Flows × the per-flow
	// steady-state rate (Mathis under current loss, window-limited by
	// Window) — how a real population backs off when the path
	// congests. Zero disables the cap.
	Flows int

	// Window is the per-flow receive window bounding each mouse's rate
	// at Window/RTT (legacy endpoints: 64 KB). Zero means no window
	// ceiling.
	Window units.ByteSize

	// Burstiness adds mean-preserving lognormal modulation (sigma in
	// log-space) to the offered load each tick, drawn from the
	// aggregate's own RNG stream. Zero offers the mean load exactly.
	Burstiness float64
}

// Aggregate is one registered flow population.
type Aggregate struct {
	cfg        AggregateConfig
	rng        *rand.Rand
	path       []*portState // egress port at each hop, in order
	rtt        time.Duration
	bottleneck units.BitRate
	ceiling    float64 // per-flow window ceiling in bits/s (0 = none)
	baseDemand float64 // λ·S·8 bits/s

	demand    float64 // offered bits/s at the last tick
	delivered float64 // end-to-end delivered bits/s at the last tick
	lossP     float64 // smoothed end-to-end loss fraction

	// Cumulative byte odometers, read by experiment reports; tagged so
	// dmzvet proves every tick advances both together.
	offeredBytes   units.ByteSize //dmzvet:ledger aggbytes
	deliveredBytes units.ByteSize //dmzvet:ledger aggbytes
}

// Name returns the aggregate's configured name.
func (a *Aggregate) Name() string { return a.cfg.Name }

// RTT returns the path round-trip time the Mathis model uses.
func (a *Aggregate) RTT() time.Duration { return a.rtt }

// OfferedRate returns the offered load at the last tick.
func (a *Aggregate) OfferedRate() units.BitRate { return units.BitRate(a.demand) }

// DeliveredRate returns the end-to-end delivered rate at the last tick.
func (a *Aggregate) DeliveredRate() units.BitRate { return units.BitRate(a.delivered) }

// LossRate returns the smoothed end-to-end loss fraction the aggregate
// currently experiences.
func (a *Aggregate) LossRate() float64 { return a.lossP }

// OfferedBytes returns cumulative bytes offered at the first hop.
func (a *Aggregate) OfferedBytes() units.ByteSize { return a.offeredBytes }

// DeliveredBytes returns cumulative bytes delivered end to end.
func (a *Aggregate) DeliveredBytes() units.ByteSize { return a.deliveredBytes }

// portState is the engine's per-port working state. The netsim-visible
// part lives in q; the rest drives next-tick dynamics.
type portState struct {
	port    *netsim.Port
	q       *netsim.FluidQueue
	capBits float64 // link rate in bits/s

	in     float64        // summed aggregate in-rate this tick (bits/s)
	flows  float64        // summed Flows population of traversing aggregates
	ratio  float64        // acceptance ratio from the last tick
	dropP  float64        // EWMA drop fraction
	prevTx units.ByteSize // TxBytes at the last tick
}

// Engine advances a set of fluid aggregates on a network. Create with
// New, register aggregates with Add, then Start before running the
// simulation.
type Engine struct {
	net    *netsim.Network
	cfg    Config
	aggs   []*Aggregate
	ports  []*portState // first-traversal order; tick iterates this, never a map
	byPort map[*netsim.Port]*portState
	names  map[string]bool
	ticker *sim.Ticker
	ticks  uint64
	dt     float64 // Tick in seconds, precomputed
}

// New creates a fluid engine on the network, filling Config defaults.
func New(n *netsim.Network, cfg Config) *Engine {
	if cfg.Tick <= 0 {
		cfg.Tick = DefaultTick
	}
	if cfg.Alpha <= 0 {
		cfg.Alpha = DefaultAlpha
	}
	if cfg.MSS <= 0 {
		cfg.MSS = DefaultMSS
	}
	if cfg.MaxShare <= 0 {
		cfg.MaxShare = DefaultMaxShare
	}
	if cfg.PacketFlows <= 0 {
		cfg.PacketFlows = 1
	}
	return &Engine{
		net:    n,
		cfg:    cfg,
		byPort: make(map[*netsim.Port]*portState),
		names:  make(map[string]bool),
		dt:     cfg.Tick.Seconds(),
	}
}

// Add registers an aggregate, resolving its routed path and attaching
// fluid queues to every traversed egress port. Aggregates must be added
// before Start.
func (e *Engine) Add(cfg AggregateConfig) (*Aggregate, error) {
	if e.ticker != nil {
		return nil, fmt.Errorf("fluid: Add %q after Start", cfg.Name)
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("fluid: aggregate needs a name (it seeds the RNG stream)")
	}
	if e.names[cfg.Name] {
		return nil, fmt.Errorf("fluid: duplicate aggregate name %q", cfg.Name)
	}
	if cfg.MeanSize == 0 {
		cfg.MeanSize = 100 * units.KB
	}
	hops := e.net.Path(cfg.Src, cfg.Dst)
	links := e.net.PathInfo(cfg.Src, cfg.Dst)
	if len(links) == 0 {
		return nil, fmt.Errorf("fluid: no path %s -> %s", cfg.Src, cfg.Dst)
	}
	a := &Aggregate{
		cfg:        cfg,
		rng:        e.net.Stream("fluid/aggregate", cfg.Name),
		rtt:        e.net.PathRTT(cfg.Src, cfg.Dst),
		bottleneck: e.net.PathBottleneck(cfg.Src, cfg.Dst),
		baseDemand: cfg.FlowsPerSecond * float64(cfg.MeanSize) * 8,
	}
	if cfg.Window > 0 {
		a.ceiling = float64(analytic.WindowLimitedRate(cfg.Window, a.rtt))
	}
	for i, l := range links {
		egress := l.A
		if egress.Owner.Name() != hops[i] {
			egress = l.B
		}
		ps := e.byPort[egress]
		if ps == nil {
			ps = &portState{
				port:    egress,
				q:       &netsim.FluidQueue{},
				capBits: float64(egress.Rate()),
				ratio:   1,
				prevTx:  egress.Counters.TxBytes,
			}
			egress.AttachFluid(ps.q)
			e.byPort[egress] = ps
			e.ports = append(e.ports, ps)
		}
		ps.flows += float64(cfg.Flows)
		a.path = append(a.path, ps)
	}
	e.names[cfg.Name] = true
	e.aggs = append(e.aggs, a)
	return a, nil
}

// Start schedules the update tick on the network's control scheduler.
// Under sharded execution control events fire at barrier windows with
// every shard quiesced, which is what makes the unlocked FluidQueue
// reads on the packet hot path safe at any shard count.
func (e *Engine) Start() {
	if e.ticker == nil {
		e.ticker = e.net.Sched.EveryTag(tagFluid, e.cfg.Tick, e.tick)
	}
}

// Stop cancels the update tick. Published port shares and backlogs
// freeze at their last values.
func (e *Engine) Stop() {
	if e.ticker != nil {
		e.ticker.Stop()
		e.ticker = nil
	}
}

// Ticks returns how many update ticks have run.
func (e *Engine) Ticks() uint64 { return e.ticks }

// Aggregates returns the registered aggregates in Add order.
func (e *Engine) Aggregates() []*Aggregate { return e.aggs }

// tick advances every aggregate and port by one interval. Cost is
// O(aggregates × path length + ports), independent of the flow count —
// the whole point of the fluid class. It must stay allocation-free:
// with a 10ms tick and 10⁶ background flows this is the only recurring
// event the background pays.
//
//dmz:hotpath
func (e *Engine) tick() {
	e.ticks++
	alpha := e.cfg.Alpha
	// Pass A — demand: each aggregate offers its (possibly modulated)
	// load capped by the population's steady-state ceiling, then walks
	// its path accumulating per-port in-rates attenuated by last tick's
	// acceptance ratios.
	for _, a := range e.aggs {
		d := a.baseDemand
		if s := a.cfg.Burstiness; s > 0 {
			d *= math.Exp(s*a.rng.NormFloat64() - 0.5*s*s)
		}
		if a.cfg.Flows > 0 {
			per := float64(analytic.EffectiveMathisRate(a.bottleneck, e.cfg.MSS, a.rtt, a.lossP))
			if a.ceiling > 0 && a.ceiling < per {
				per = a.ceiling
			}
			if limit := float64(a.cfg.Flows) * per; d > limit {
				d = limit
			}
		}
		a.demand = d
		r := d
		acc := 1.0
		for _, ps := range a.path {
			ps.in += r
			r *= ps.ratio
			acc *= 1 - ps.dropP
		}
		a.delivered = r
		a.lossP = 1 - acc
		a.offeredBytes += units.ByteSize(d * e.dt / 8)
		a.deliveredBytes += units.ByteSize(r * e.dt / 8)
	}
	// Pass B — service: each port grants the fluid class the capacity a
	// fair split with the measured packet rate allows, drains backlog,
	// drops what the shared buffer cannot hold, and publishes the share
	// the packet path will see until the next tick. All ledger math is
	// integer bytes so the conservation column balances exactly.
	for _, ps := range e.ports {
		tx := ps.port.Counters.TxBytes
		pktRate := float64(tx-ps.prevTx) * 8 / e.dt
		ps.prevTx = tx
		backlog := float64(ps.q.Bytes) * 8
		demandF := ps.in + backlog/e.dt
		var grant float64
		if demandF > 0 {
			// Fair share of the link against the measured packet rate.
			// TCP fairness is per-flow: when the aggregates declare a
			// population, weight the split by flow counts (10⁵ mice vs
			// one elephant ≈ the whole link); otherwise fall back to a
			// rate-proportional split. Either way the fluid class also
			// gets whatever the packets leave unused.
			if ps.flows > 0 && pktRate > 0 {
				grant = ps.capBits * ps.flows / (ps.flows + e.cfg.PacketFlows)
			} else {
				grant = ps.capBits * demandF / (demandF + pktRate)
			}
			if leftover := ps.capBits - pktRate; leftover > grant {
				grant = leftover
			}
			if grant > demandF {
				grant = demandF
			}
			if limit := e.cfg.MaxShare * ps.capBits; grant > limit {
				grant = limit
			}
		}
		offered := units.ByteSize(ps.in * e.dt / 8)
		drain := units.ByteSize(grant * e.dt / 8)
		avail := ps.q.Bytes + offered
		through := drain
		if through > avail {
			through = avail
		}
		rem := avail - through
		// The fluid backlog shares the egress buffer with the packet
		// queues: it may only keep what the packets leave free.
		var drop units.ByteSize
		if free := ps.port.QueueCap - ps.port.QueueBytes(); rem > free {
			drop = rem - free
			rem = free
			if rem < 0 { // packet queues alone overflow the cap
				drop += rem
				rem = 0
			}
		}
		ps.q.Offered += offered
		ps.q.Delivered += through
		ps.q.Dropped += drop
		ps.q.Bytes = rem
		// Port-level observers (content caches, metering middleboxes)
		// see the settled deposit here — fluid bytes never traverse the
		// packet interception path. Nil-gated: tap-free runs execute
		// identical instructions.
		if t := ps.q.Tap; t != nil {
			t(through, drop)
		}
		if avail > 0 {
			ps.ratio = float64(through) / float64(avail)
			ps.dropP = alpha*float64(drop)/float64(avail) + (1-alpha)*ps.dropP
		} else {
			ps.ratio = 1
			ps.dropP = (1 - alpha) * ps.dropP
		}
		share := float64(through) * 8 / e.dt / ps.capBits
		if share > e.cfg.MaxShare {
			share = e.cfg.MaxShare
		}
		ps.q.Share = share
		ps.in = 0
	}
}
