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
// outboxes of ports whose peer runs on another shard, scheduling each
// parked packet on its destination shard via its cut lane, (3) re-runs
// the shards to T if any drained arrival was due exactly at T (one
// re-run suffices: cut delays are strictly positive, so deliveries
// triggered by events at T land strictly after T), (4) runs control
// events at T with every shard quiesced at exactly T, (5) evens out
// the shards' packet free-lists, and (6) merges the window's captured
// trace events canonically.
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
	outboxes  []*Port  // ports whose cut-link peer runs on another shard
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
// Run and RunFor install the SetShards count on first use, so call
// this only to install a plan before the network first runs. It fails
// once a plan is in place.
func (n *Network) InstallShards(k int) (*Engine, error) {
	if n.engine != nil {
		return nil, errors.New("netsim: a shard plan is already installed")
	}
	return n.install(k), nil
}

// SetShards sets the shard count the network's first Run or RunFor
// installs; values below 1 mean 1, the default. The count changes
// wall-clock time only, never output. Nodes added until that first run
// join its partition.
func (n *Network) SetShards(k int) { n.shards = k }

// engineToRun returns the network's engine, installing the SetShards
// count on first use.
func (n *Network) engineToRun() *Engine {
	if n.engine == nil {
		n.install(n.shards)
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
			e.outboxes = append(e.outboxes, a, b)
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

	// A Stop ends the run it was issued in, not every later one. Shard
	// schedulers clear their flag each window; the control scheduler
	// runs only at barriers with control events due.
	e.sawStop = false
	e.ctl.ClearStop()

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
	// scheduler, and its transmissions fill outboxes *after* the drain
	// above. Those arrivals are strictly future (stamped
	// shard-now + cut delay, and the shards sit at exactly t), so one
	// more drain parks them as ordinary scheduled deliveries for the
	// next window.
	e.drain(-1)
	e.balancePools()
	e.flush()
}

// balancePools evens out the shards' packet free-lists. A bulk transfer
// allocates its segments on the sender's shard and releases them on the
// receiver's, so without this one pool misses on every other segment
// while the other grows for the whole run. Shard i (in rank order) ends
// with total/k packets, one more for each of the first total%k, moved
// from the end of one list to the end of another. It runs with every
// shard parked, and once each list's capacity has reached its peak it
// allocates nothing.
func (e *Engine) balancePools() {
	k := len(e.shards)
	if k < 2 {
		return
	}
	total := 0
	for _, sc := range e.shards {
		total += len(sc.pool.free)
	}
	share := func(i int) int {
		if i < total%k {
			return total/k + 1
		}
		return total / k
	}
	r := 0 // the first shard that may still be short, in rank order
	for d, sc := range e.shards {
		from := &sc.pool
		for len(from.free) > share(d) {
			for len(e.shards[r].pool.free) >= share(r) {
				r++
			}
			to := &e.shards[r].pool
			m := min(len(from.free)-share(d), share(r)-len(to.free))
			moved := from.free[len(from.free)-m:]
			to.free = append(to.free, moved...)
			clear(moved)
			from.free = from.free[:len(from.free)-m]
		}
	}
}

// FreePackets returns the length of each shard's packet free-list, in
// rank order. Like PacketsReused it is a diagnostic: how many packets
// sit in which pool depends on the partition.
func (e *Engine) FreePackets() []int {
	out := make([]int, len(e.shards))
	for i, sc := range e.shards {
		out[i] = len(sc.pool.free)
	}
	return out
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

// drain empties every outbox, in push order, onto its peer's arrivals
// line, keyed by the cut lane and each packet's lane sequence. It
// reports whether any arrival was due exactly at t (the caller must
// re-run the shards). It runs only with every shard parked: the worker
// handshake orders a window's appends before it, and it before the
// next window, so the outboxes need no synchronization. Packets are
// appended only by events, which run only inside windows, and every
// window ends with a drain, so the outboxes are empty between windows.
func (e *Engine) drain(t sim.Time) (rerun bool) {
	for _, p := range e.outboxes {
		for _, h := range p.outbox {
			p.peer.arrivals.PushLane(h.seq, h.at, h.pkt)
			rerun = rerun || h.at == t
		}
		clear(p.outbox)
		p.outbox = p.outbox[:0]
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
// after a run that a Stop ended, which legitimately parks schedulers
// mid-window). Outboxes need no check of their own — the conservation
// ledger counts their packets in flight.
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
