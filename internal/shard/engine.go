package shard

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// maxTime is the "no bound" sentinel for window sizing.
const maxTime = sim.Time(math.MaxInt64)

// Engine is the conservative barrier-window run loop. Install builds
// one and registers it as the network's Runner; Network.Run / RunFor
// then delegate here.
//
// # Window algebra
//
// Each iteration advances every shard scheduler to a common barrier
//
//	T = min(M + L, G, end)
//
// where M is the earliest pending event across all shards, L is the
// plan's lookahead (the smallest cut delay — no cross-shard effect of
// an event at M can land before M+L), G is the next control event, and
// end bounds a RunFor. Crucially every term is independent of the
// shard count: M is the global minimum wherever events happen to live,
// L comes from the cut set (chosen by topology alone), and G is the
// control plane. The barrier sequence — and therefore when control
// events observe the data plane — is thus byte-identical at any shard
// count, which is what the cross-shard equivalence suite proves.
//
// # Barrier protocol
//
// At each barrier the engine (1) runs every shard to T, (2) drains the
// cut rings, scheduling each parked packet on its destination shard via
// its cut lane, (3) re-runs the shards to T if any drained arrival was
// due exactly at T (one re-run suffices: cut delays are strictly
// positive, so deliveries triggered by events at T land strictly after
// T), (4) runs control events at T with every shard quiesced at exactly
// T, and (5) merges the window's captured trace events canonically.
//
// Control events at a quiesced barrier are what make all existing
// experiment code shard-safe without modification: anything scheduled
// on Network.Sched — tickers, fault transitions, monitors, samplers —
// observes the same globally consistent instant it always did.
type Engine struct {
	net       *netsim.Network
	ctl       *sim.Scheduler
	plan      *Plan
	lookahead time.Duration
	shards    []*shardRun
	rings     []*Ring

	// Trace-merge state: nil when the network traces nothing.
	live   *telemetry.Bus
	ctlCap *capture

	// Windows counts synchronization windows executed — a diagnostic
	// (window count depends on the event pattern, not the shard count,
	// but it is not part of any golden output).
	Windows uint64

	sawStop bool
}

type shardRun struct {
	sched *sim.Scheduler
	rank  int
	cap   *capture
	start chan sim.Time
	done  chan struct{}
}

// capture buffers one execution context's trace events until the
// barrier merge. Single-writer: the context's own goroutine appends,
// the engine takes the batch only at barriers.
type capture struct {
	bus *telemetry.Bus
	buf []telemetry.Event
}

func newCapture() *capture {
	c := &capture{bus: telemetry.NewBus()}
	c.bus.Subscribe(func(ev *telemetry.Event) { c.buf = append(c.buf, *ev) })
	return c
}

func (c *capture) take() []telemetry.Event {
	b := c.buf
	c.buf = nil
	return b
}

// Install partitions the network (see Partition), spreads the domains
// over nshards schedulers, arms the cut links, and registers the engine
// as the network's runner. The effective shard count is capped at the
// domain count and floored at one; the cap changes wall-clock layout
// only, never results.
//
// Install must run before the network's first event. It returns
// ErrNoCut (wrapped) for an unsplittable topology, with the network
// left untouched on its unsharded path.
func Install(n *netsim.Network, nshards int) (*Engine, error) {
	plan, err := Partition(n)
	if err != nil {
		return nil, err
	}
	k := nshards
	if k > len(plan.Domains) {
		k = len(plan.Domains)
	}
	if k < 1 {
		k = 1
	}

	e := &Engine{net: n, ctl: n.Sched, plan: plan, lookahead: plan.Lookahead}

	defs := make([]netsim.ShardDef, k)
	for i := range defs {
		defs[i] = netsim.ShardDef{Rank: i + 1, Sched: sim.New()}
	}
	for di, dom := range plan.Domains {
		defs[di%k].Nodes = append(defs[di%k].Nodes, dom...)
	}

	var ctlBus *telemetry.Bus
	if n.TelemetryBus().Enabled() {
		e.live = n.TelemetryBus()
		e.ctlCap = newCapture()
		ctlBus = e.ctlCap.bus
	}

	for i := range defs {
		sr := &shardRun{sched: defs[i].Sched, rank: i + 1}
		if e.live != nil {
			sr.cap = newCapture()
			defs[i].Bus = sr.cap.bus
		}
		e.shards = append(e.shards, sr)
	}

	cuts := make([]netsim.CutDef, 0, len(plan.Cuts))
	for _, c := range plan.Cuts {
		// Lanes from the link's creation index: identical at any shard
		// count, so kernel tie-breaks cannot depend on the partition.
		cd := netsim.CutDef{
			Link:   c.Link,
			LaneAB: uint32(2*c.Index + 1),
			LaneBA: uint32(2*c.Index + 2),
		}
		if c.DomA%k != c.DomB%k {
			ra := NewRing(0)
			rb := NewRing(0)
			cd.AtoB, cd.BtoA = ra, rb
			e.rings = append(e.rings, ra, rb)
		}
		cuts = append(cuts, cd)
	}

	if err := n.ApplyShards(defs, cuts, ctlBus); err != nil {
		return nil, err
	}
	n.SetRunner(e)
	n.AddAuditor(e.audit)
	if t := n.Telemetry(); t != nil {
		t.Registry.RegisterCollector("shard.engine", func(emit telemetry.EmitFunc) {
			// Only shard-count-invariant aggregates may be exported:
			// every logical event executes exactly once on some shard,
			// so the sum is the same at any shard count — per-shard
			// series or window counts would not be, and would break
			// cross-count metric equivalence.
			var total uint64
			for _, sr := range e.shards {
				total += sr.sched.Processed
			}
			emit("shard_events_total", nil, float64(total))
		})
	}
	return e, nil
}

// AutoPlan returns a DefaultShardPlan hook that installs an n-shard
// engine on every network at its first run — the -shards flag's
// mechanism for reaching networks that experiment code constructs
// internally. Unsplittable topologies silently stay on the unsharded
// path (at every shard count, so equivalence holds vacuously); any
// other installation failure is a programming error and panics.
func AutoPlan(n int) func(*netsim.Network) {
	return func(net *netsim.Network) {
		if _, err := Install(net, n); err != nil {
			if errors.Is(err, ErrNoCut) {
				return
			}
			panic(fmt.Sprintf("shard: auto plan: %v", err))
		}
	}
}

// SetDefaultPlan wires a -shards flag value into every network the
// process builds: n >= 1 installs AutoPlan(n) as netsim's default plan
// (n = 1 still runs the sharded engine, on one scheduler — the
// baseline the cross-count equivalence suite compares against), while
// n <= 0 leaves the classic single-scheduler path untouched.
func SetDefaultPlan(n int) {
	if n >= 1 {
		netsim.DefaultShardPlan = AutoPlan(n)
	}
}

// Shards reports the effective shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Lookahead reports the plan's synchronization lookahead.
func (e *Engine) Lookahead() time.Duration { return e.lookahead }

// Run implements netsim.Runner: execute until every scheduler drains.
func (e *Engine) Run() { e.run(-1) }

// RunFor implements netsim.Runner: advance the whole network by d, then
// leave every scheduler's clock at exactly the common end time.
func (e *Engine) RunFor(d time.Duration) { e.run(e.ctl.Now().Add(d)) }

func (e *Engine) run(end sim.Time) {
	stop := e.startWorkers()
	defer stop()

	// Packets parked in rings by a previous RunFor whose arrivals lay
	// beyond its end: schedule them now so window sizing sees them.
	e.drain(-1)

	for {
		m, haveM := e.minShardNext()
		g, haveG := e.ctl.NextEventTime()
		t := maxTime
		if haveM {
			if w := m.Add(e.lookahead); w < t {
				t = w
			}
		}
		if haveG && g < t {
			t = g
		}
		if t == maxTime {
			break // fully drained
		}
		if end >= 0 && t > end {
			break
		}
		e.window(t)
		if e.stopped() {
			e.sawStop = true
			return
		}
	}
	if end >= 0 {
		// Remaining events at or before end are all safely inside the
		// lookahead horizon (the loop broke with min(M+L, G) > end), so
		// one final window lands every clock on exactly end.
		e.window(end)
		if e.stopped() {
			e.sawStop = true
		}
	}
}

// window advances everything to the common barrier t.
func (e *Engine) window(t sim.Time) {
	e.Windows++
	e.runShards(t)
	for e.drain(t) {
		// An arrival due exactly at t: the destination shard must
		// execute it before control runs at t. Strictly positive cut
		// delays mean the re-run can only park strictly-later arrivals,
		// so this loop runs at most twice.
		e.runShards(t)
	}
	e.ctl.RunUntil(t)
	// Control events can themselves drive cut links: anything scheduled
	// before the engine installed still lives on the control scheduler,
	// and its transmissions push ring entries *after* the drain above.
	// Those arrivals are strictly future (stamped shard-now + cut
	// delay, and the shards sit at exactly t), so one more drain parks
	// them as ordinary scheduled deliveries for the next window.
	e.drain(-1)
	e.flush()
}

// runShards advances every shard scheduler to t — in place for a single
// shard, on the worker goroutines otherwise.
func (e *Engine) runShards(t sim.Time) {
	if len(e.shards) == 1 {
		e.shards[0].sched.RunUntil(t)
		return
	}
	for _, sr := range e.shards {
		sr.start <- t
	}
	for _, sr := range e.shards {
		<-sr.done
	}
}

// drain empties every cut ring, pushing each parked packet onto its
// destination port's arrivals line, keyed by the cut lane and the
// packet's lane sequence. It reports whether any arrival was due
// exactly at t (caller must re-run the shards).
func (e *Engine) drain(t sim.Time) (rerun bool) {
	for _, r := range e.rings {
		r.Drain(func(en ringEntry) {
			e.net.ScheduleLaneDelivery(en.to, en.pkt, en.at, en.seq)
			if en.at == t {
				rerun = true
			}
		})
	}
	return rerun
}

// minShardNext returns the earliest pending event time across shards.
func (e *Engine) minShardNext() (sim.Time, bool) {
	var best sim.Time
	have := false
	for _, sr := range e.shards {
		if t, ok := sr.sched.NextEventTime(); ok && (!have || t < best) {
			best, have = t, true
		}
	}
	return best, have
}

func (e *Engine) stopped() bool {
	if e.ctl.Stopped() {
		return true
	}
	for _, sr := range e.shards {
		if sr.sched.Stopped() {
			return true
		}
	}
	return false
}

// startWorkers launches one goroutine per shard (none for a single
// shard) and returns the shutdown function.
func (e *Engine) startWorkers() func() {
	if len(e.shards) == 1 {
		return func() {}
	}
	for _, sr := range e.shards {
		sr.start = make(chan sim.Time)
		sr.done = make(chan struct{})
		go func(sr *shardRun) {
			for t := range sr.start {
				sr.sched.RunUntil(t)
				sr.done <- struct{}{}
			}
		}(sr)
	}
	return func() {
		for _, sr := range e.shards {
			close(sr.start)
		}
	}
}

// flush merges the window's captured trace events onto the live bus in
// canonical order: stable-sorted by (At, Node, Flow) over the batches
// concatenated control-first then shards by rank. Each emitter key
// (node, control target) lives in exactly one context, so the stable
// sort preserves every emitter's own order while making the interleave
// a pure function of event content — identical at any shard count.
func (e *Engine) flush() {
	if e.live == nil {
		return
	}
	batch := e.ctlCap.take()
	for _, sr := range e.shards {
		batch = append(batch, sr.cap.take()...)
	}
	if len(batch) == 0 {
		return
	}
	sort.SliceStable(batch, func(i, j int) bool {
		a, b := &batch[i], &batch[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Flow < b.Flow
	})
	for i := range batch {
		e.live.Emit(batch[i])
	}
}

// audit contributes the engine's invariants to the network's audit:
// every shard clock must agree with the control clock at rest (skipped
// after a Stop, which legitimately parks schedulers mid-window). Ring
// residency needs no check of its own — the conservation ledger counts
// parked packets in flight through each ring's Len.
func (e *Engine) audit() []error {
	var errs []error
	if e.sawStop {
		return nil
	}
	for _, sr := range e.shards {
		if got, want := sr.sched.Now(), e.ctl.Now(); got != want {
			errs = append(errs, fmt.Errorf("shard %d clock %v disagrees with control clock %v", sr.rank, got, want))
		}
	}
	return errs
}
