package netsim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// maxTime is the "no bound" sentinel for window sizing.
const maxTime = sim.Time(math.MaxInt64)

// DefaultShards is the shard count a network's first Run or RunFor
// installs when no plan was installed explicitly. Command-line tools
// set it from their -shards flag to reach networks that experiment code
// constructs internally. Values below 1 mean 1. The count changes
// wall-clock time only, never output.
var DefaultShards = 1

// Engine is the conservative barrier-window run loop every Network runs
// on: the network is partitioned into domains at its cut links (see
// Partition), the domains are spread over one or more shard
// schedulers, and Network.Sched becomes the control scheduler.
//
// # Window algebra
//
// Each iteration advances every shard scheduler to a common barrier
//
//	T = min(M + L, G, end)
//
// where M is the earliest pending event across all shards, L is the
// plan's lookahead (the smallest cut delay — no cross-shard effect of
// an event at M can land before M+L; a plan with no cut has no L term),
// G is the next control event, and end bounds a RunFor. Every term is
// independent of the shard count: M is the global minimum wherever
// events happen to live, L comes from the cut set (chosen by topology
// alone), and G is the control plane. The barrier sequence — and
// therefore when control events observe the data plane — is thus
// byte-identical at any shard count, which is what the cross-shard
// equivalence suite proves.
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
// Control events at a quiesced barrier are what make experiment code
// shard-safe without modification: anything scheduled on Network.Sched
// — tickers, fault transitions, monitors, samplers — observes one
// globally consistent instant.
//
// # Clocks
//
// Every clock reaches a barrier before anything can observe it there:
// before control events run at it, at the start of the next window, and
// at the end of a RunFor. A Run that drains leaves every clock on the
// last executed event, as a single event loop would.
type Engine struct {
	ctl       *sim.Scheduler
	lookahead time.Duration // zero: no cut, so no bound
	shards    []*shardCtx
	rings     []*Ring
	barrier   sim.Time // the last window's barrier

	// Trace-merge state: nil when the network traces nothing.
	live   *telemetry.Bus
	ctlCap *capture

	// Windows counts synchronization windows executed — a diagnostic
	// (window count depends on the event pattern, not the shard count,
	// but it is not part of any golden output).
	Windows uint64

	sawStop bool
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

// InstallShards partitions the network (see Partition), spreads the
// domains over k shard schedulers, arms the cut links, and makes the
// engine the network's run loop. The effective shard count is capped at
// the domain count and floored at one; the cap changes wall-clock
// layout only, never results.
//
// Run and RunFor install DefaultShards on first use, so call this only
// to choose the count for one network, before it first runs. It fails
// once a plan is in place.
func (n *Network) InstallShards(k int) (*Engine, error) {
	if n.engine != nil {
		return nil, errors.New("netsim: a shard plan is already installed")
	}
	return n.install(k), nil
}

// engineToRun returns the network's engine, installing DefaultShards
// shards on first use.
func (n *Network) engineToRun() *Engine {
	if n.engine == nil {
		n.install(DefaultShards)
	}
	return n.engine
}

func (n *Network) install(k int) *Engine {
	plan := n.Partition()
	k = max(1, min(k, len(plan.Domains)))
	e := &Engine{ctl: n.Sched, lookahead: plan.Lookahead, barrier: n.Sched.Now()}
	if n.bus.Enabled() {
		e.live = n.bus
		e.ctlCap = newCapture()
		n.ctl.bus = e.ctlCap.bus
	}
	// Timers armed so far stay on the control scheduler while their
	// owners move to shards, whose workers may cancel them concurrently.
	n.Sched.SetShared()
	for i := 0; i < k; i++ {
		sc := &shardCtx{sched: sim.New(), rank: i + 1}
		if e.live != nil {
			sc.cap = newCapture()
			sc.bus = sc.cap.bus
		}
		e.shards = append(e.shards, sc)
	}
	for di, dom := range plan.Domains {
		for _, name := range dom {
			n.nodes[name].setShard(e.shards[di%k])
		}
	}
	for _, c := range plan.Cuts {
		// Lanes from the link's creation index: identical at any shard
		// count, so kernel tie-breaks cannot depend on the partition.
		a, b := c.Link.A, c.Link.B
		a.lane, b.lane = uint32(2*c.Index+1), uint32(2*c.Index+2)
		if c.DomA%k != c.DomB%k {
			a.xq, b.xq = newRing(b), newRing(a)
			e.rings = append(e.rings, a.xq, b.xq)
		}
	}
	// Each port's arrivals line moves to the port's shard scheduler and
	// takes the lane its peer sends on (0 on an uncut link). No packet
	// is on a wire yet: wires fill only inside events.
	for _, l := range n.links {
		for _, p := range [2]*Port{l.A, l.B} {
			p.arrivals = p.ctx.sched.NewLine(tagLink, p.peer.lane, deliverCall, p)
		}
	}
	n.engine = e
	return e
}

// run executes until every scheduler drains (end < 0) or, for a
// RunFor, until end, leaving every scheduler's clock at exactly end.
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
		if haveM && e.lookahead > 0 {
			t = m.Add(e.lookahead)
		}
		if haveG && g < t {
			t = g
		}
		if t == maxTime {
			if !haveM || end >= 0 {
				break // fully drained, or the final window below runs the rest
			}
			// Run on a cut-free network with no control event pending:
			// nothing can interrupt the lone shard, so it runs dry and
			// the barrier lands on its last event.
			e.advance(e.barrier)
			s := e.shards[0].sched
			s.Run()
			t = s.Now()
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
	if end < 0 {
		// Drained: the last barrier may lie past the last event, so
		// every clock meets at the latest one any scheduler reached.
		e.barrier = e.ctl.Now()
		for _, sc := range e.shards {
			e.barrier = max(e.barrier, sc.sched.Now())
		}
		e.advance(e.barrier)
		return
	}
	// Remaining events at or before end are all safely inside the
	// lookahead horizon (the loop broke with min(M+L, G) > end), so one
	// final window lands every clock on exactly end.
	e.window(end)
	if e.stopped() {
		e.sawStop = true
		return
	}
	e.advance(end)
}

// window runs everything up to the common barrier t.
func (e *Engine) window(t sim.Time) {
	e.Windows++
	e.advance(e.barrier)
	e.barrier = t
	e.runShards(t)
	for e.drain(t) {
		// An arrival due exactly at t: the destination shard must
		// execute it before control runs at t. Strictly positive cut
		// delays mean the re-run can only park strictly-later arrivals,
		// so this loop runs at most twice.
		e.runShards(t)
	}
	if g, ok := e.ctl.NextEventTime(); ok && g <= t {
		// Control events see every shard quiesced at exactly t.
		e.advance(t)
		e.ctl.RunUntil(t)
	}
	// Control events can themselves drive cut links: a port event
	// scheduled before the engine installed still lives on the control
	// scheduler, and its transmissions push ring entries *after* the
	// drain above. Those arrivals are strictly future (stamped
	// shard-now + cut delay, and the shards sit at exactly t), so one
	// more drain parks them as ordinary scheduled deliveries for the
	// next window.
	e.drain(-1)
	e.flush()
}

// advance moves every clock forward to t.
func (e *Engine) advance(t sim.Time) {
	e.ctl.AdvanceTo(t)
	for _, sc := range e.shards {
		sc.sched.AdvanceTo(t)
	}
}

// runShards runs every shard scheduler's events up to t — in place for
// a single shard, on the worker goroutines otherwise.
func (e *Engine) runShards(t sim.Time) {
	if len(e.shards) == 1 {
		e.shards[0].sched.RunThrough(t)
		return
	}
	for _, sc := range e.shards {
		sc.start <- t
	}
	for _, sc := range e.shards {
		<-sc.done
	}
}

// drain empties every cut ring onto the destination ports' arrivals
// lines. It reports whether any arrival was due exactly at t (the
// caller must re-run the shards).
func (e *Engine) drain(t sim.Time) (rerun bool) {
	for _, r := range e.rings {
		rerun = r.drain(t) || rerun
	}
	return rerun
}

// minShardNext returns the earliest pending event time across shards.
func (e *Engine) minShardNext() (sim.Time, bool) {
	var best sim.Time
	have := false
	for _, sc := range e.shards {
		if t, ok := sc.sched.NextEventTime(); ok && (!have || t < best) {
			best, have = t, true
		}
	}
	return best, have
}

func (e *Engine) stopped() bool {
	if e.ctl.Stopped() {
		return true
	}
	for _, sc := range e.shards {
		if sc.sched.Stopped() {
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
	for _, sc := range e.shards {
		sc.start = make(chan sim.Time)
		sc.done = make(chan struct{})
		go func(sc *shardCtx) {
			for t := range sc.start {
				sc.sched.RunThrough(t)
				sc.done <- struct{}{}
			}
		}(sc)
	}
	return func() {
		for _, sc := range e.shards {
			close(sc.start)
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
	for _, sc := range e.shards {
		batch = append(batch, sc.cap.take()...)
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

// audit checks the engine's invariants: no shard clock regressed, and
// every shard clock agrees with the control clock at rest (skipped
// after a Stop, which legitimately parks schedulers mid-window). Ring
// residency needs no check of its own — the conservation ledger counts
// parked packets in flight through each ring's Len.
func (e *Engine) audit() []error {
	var errs []error
	for _, sc := range e.shards {
		if sc.sched.ClockRegressions > 0 {
			errs = append(errs, fmt.Errorf("shard %d clock regressed %d times", sc.rank, sc.sched.ClockRegressions))
		}
		if got, want := sc.sched.Now(), e.ctl.Now(); !e.sawStop && got != want {
			errs = append(errs, fmt.Errorf("shard %d clock %v disagrees with control clock %v", sc.rank, got, want))
		}
	}
	return errs
}
