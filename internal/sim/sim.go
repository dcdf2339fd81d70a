// Package sim is a deterministic discrete-event simulation kernel.
//
// Every component of the network simulator schedules work on a shared
// Scheduler. Events fire in strictly nondecreasing time order; ties are
// broken by scheduling order, which — together with explicitly seeded
// random number generators — makes entire simulation runs reproducible
// bit-for-bit.
//
// Time is modelled as nanoseconds since the start of the run (type Time).
// Durations are ordinary time.Duration values.
//
// The kernel is built for allocation-free steady-state operation (see
// DESIGN.md, "Event kernel performance model"): the pending queue is a
// hand-rolled 4-ary min-heap of inline event structs (no per-event
// pointer, no interface boxing), timer cancellation is lazy
// (generation-checked skip at pop instead of O(log n) removal), and
// timer identity lives in a free-listed slot table so a Timer is a
// plain {scheduler, slot, generation} value.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Time is an absolute simulation timestamp in nanoseconds since the start
// of the run.
type Time int64

// Seconds returns the timestamp as fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Duration returns the timestamp as an offset from time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Micros returns the timestamp as fractional microseconds — the unit
// the Chrome trace-event format expects for ts/dur fields.
func (t Time) Micros() float64 { return float64(t) / float64(time.Microsecond) }

// Add returns the timestamp shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between two timestamps.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the timestamp as a duration, e.g. "1.5s".
func (t Time) String() string { return time.Duration(t).String() }

// CallFunc is the closure-free event callback form: a static function
// receiving two operands that were stored inline in the event. Hot
// packet paths (port serialization, wire propagation) use it so that
// scheduling costs zero heap allocations — a package-level CallFunc
// plus two pointer operands never escape.
type CallFunc func(a, b any)

// event is one pending queue entry, stored inline in the heap slice.
// Exactly one of fn/call is non-nil. slot/gen tie the event to its
// timer slot so lazily cancelled events are recognized at pop.
type event struct {
	at   Time
	seq  uint64 // scheduling order within a lane; breaks ties deterministically
	fn   func()
	call CallFunc
	a, b any
	slot uint32
	gen  uint32
	lane uint32 // 0 = local events (seq = scheduling order); >0 = cross-shard delivery lanes
	tag  Tag    // component attribution; 0 = untagged
}

// less orders events by (time, lane, seq) — the kernel's total order.
//
// Lane 0 is the local lane: every event scheduled through the ordinary
// At/After API lands there with seq taken from the scheduler's own
// counter, so a single-scheduler run orders exactly as it always has —
// (time, scheduling order). Nonzero lanes exist for the sharded engine
// (internal/shard): a cross-shard packet delivery is keyed by its
// link-direction lane and a per-lane sequence assigned at the sending
// side, which is the same key no matter how many shards the topology is
// cut into. That shard-count-invariant tie-break is what makes sharded
// runs byte-identical to each other.
func (e *event) less(other *event) bool {
	if e.at != other.at {
		return e.at < other.at
	}
	if e.lane != other.lane {
		return e.lane < other.lane
	}
	return e.seq < other.seq
}

// Timer slot states.
const (
	slotFree uint8 = iota
	slotPending
	slotCancelled
)

// timerSlot is the stable identity of one scheduled event. The heap
// entry for the event carries (slot index, generation); the generation
// increments every time the slot is recycled, so stale Timer handles —
// and lazily cancelled heap entries — are detected by comparison.
type timerSlot struct {
	gen   uint32
	state uint8
	at    Time // fire time, for Timer.When
}

// Scheduler owns the simulation clock and the pending event queue.
// The zero value is not usable; call New.
type Scheduler struct {
	now Time
	seq uint64

	// events is a 4-ary min-heap of inline event structs. 4-ary rather
	// than binary: sift-down does 3/4 fewer levels of (cache-missing)
	// parent/child hops for this event mix, and the inline structs make
	// each level one contiguous 4-entry scan. See DESIGN.md.
	events []event

	// slots / freeSlots implement the timer-identity table. cancelled
	// counts lazily cancelled events still occupying heap entries; when
	// they dominate the heap it is compacted in one O(n) pass.
	slots     []timerSlot
	freeSlots []uint32
	cancelled int

	// shared marks a scheduler whose timers other goroutines may Stop
	// while it is idle (see SetShared); cancelMu serializes their
	// bookkeeping.
	shared   bool
	cancelMu sync.Mutex

	stopped bool

	// Processed counts events executed so far; useful for run statistics
	// and for guarding against runaway simulations in tests.
	Processed uint64

	// ClockRegressions counts events that executed with a timestamp
	// earlier than the clock they found — zero in any correct run, since
	// At rejects past scheduling and the event heap pops in time order.
	// Invariant checkers (internal/harness) assert it stays zero rather
	// than trusting the heap implicitly.
	ClockRegressions uint64

	// tagCounts attributes executed events to the component tags they
	// were scheduled under (AtTag/AfterTag/EveryTag), indexed by Tag.
	// Index 0 accumulates untagged events; Processed covers everything.
	tagCounts [maxTags]uint64
}

// New returns an empty scheduler with the clock at zero.
func New() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// Timer is a handle to a scheduled event that can be cancelled. Timers
// are single-shot values, cheap to copy and store; the zero Timer is
// valid and behaves as already-fired (Stop and Pending return false).
//
// Cancellation is lazy: Stop marks the timer's slot cancelled and the
// kernel discards the heap entry when it reaches the top of the queue
// (or during compaction). A handle held across the slot's recycling is
// detected by generation mismatch and is inert. (The generation is 32
// bits; a handle would have to be held across 2^32 reuses of one slot
// to alias, which no simulation approaches.)
type Timer struct {
	s    *Scheduler
	slot uint32
	gen  uint32
}

// allocSlot takes a slot from the free-list (or grows the table) and
// marks it pending for an event firing at t.
//
//dmz:hotpath
func (s *Scheduler) allocSlot(at Time) uint32 {
	var idx uint32
	if n := len(s.freeSlots); n > 0 {
		idx = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	} else {
		s.slots = append(s.slots, timerSlot{})
		idx = uint32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.state = slotPending
	sl.at = at
	return idx
}

// freeSlot recycles a slot whose heap entry has been popped or
// compacted away, invalidating all outstanding handles to it.
//
//dmz:hotpath
func (s *Scheduler) freeSlot(idx uint32) {
	sl := &s.slots[idx]
	sl.gen++
	sl.state = slotFree
	s.freeSlots = append(s.freeSlots, idx)
}

// schedule is the single entry point behind every At/After variant.
//
//dmz:hotpath
func (s *Scheduler) schedule(tag Tag, t Time, fn func(), call CallFunc, a, b any) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	slot := s.allocSlot(t)
	s.push(event{
		at: t, seq: s.seq,
		fn: fn, call: call, a: a, b: b,
		slot: slot, gen: s.slots[slot].gen, tag: tag,
	})
	return Timer{s: s, slot: slot, gen: s.slots[slot].gen}
}

// AtCallLane schedules a closure-free event on a nonzero ordering lane:
// call(a, b) runs at absolute time t, ordered after all lane-0 events at
// t and against other lane events by (lane, laneSeq). The caller owns
// laneSeq assignment and must keep it strictly increasing per lane.
//
// This is the sharded engine's delivery primitive (see internal/shard):
// the (lane, laneSeq) key is derived from the cut link and the sending
// side's emission order, so the executed order of same-timestamp
// deliveries is identical at any shard count. Ordinary simulation code
// has no reason to call it.
//
//dmz:hotpath
func (s *Scheduler) AtCallLane(tag Tag, lane uint32, laneSeq uint64, t Time, call CallFunc, a, b any) Timer {
	if lane == 0 {
		panic("sim: AtCallLane requires a nonzero lane; lane 0 is the local lane")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	slot := s.allocSlot(t)
	s.push(event{
		at: t, seq: laneSeq, lane: lane,
		call: call, a: a, b: b,
		slot: slot, gen: s.slots[slot].gen, tag: tag,
	})
	return Timer{s: s, slot: slot, gen: s.slots[slot].gen}
}

// At schedules fn to run at absolute time t. Scheduling in the past (t
// before Now) panics: it is always a logic error in a simulation model.
func (s *Scheduler) At(t Time, fn func()) Timer {
	return s.schedule(0, t, fn, nil, nil, nil)
}

// AtTag is At with the executed event attributed to the tagged
// component in EventCounts. Components that want their scheduler load
// visible in telemetry schedule through the *Tag variants.
func (s *Scheduler) AtTag(tag Tag, t Time, fn func()) Timer {
	return s.schedule(tag, t, fn, nil, nil, nil)
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	return s.AfterTag(0, d, fn)
}

// AfterTag is After with component attribution; see AtTag.
func (s *Scheduler) AfterTag(tag Tag, d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(tag, s.now.Add(d), fn, nil, nil, nil)
}

// AtCall schedules a closure-free event: call(a, b) runs at absolute
// time t. When call is a package-level CallFunc and the operands are
// pointers, scheduling allocates nothing. See CallFunc.
func (s *Scheduler) AtCall(tag Tag, t Time, call CallFunc, a, b any) Timer {
	return s.schedule(tag, t, nil, call, a, b)
}

// AfterCall is AtCall relative to now. Negative d is treated as zero.
func (s *Scheduler) AfterCall(tag Tag, d time.Duration, call CallFunc, a, b any) Timer {
	if d < 0 {
		d = 0
	}
	return s.schedule(tag, s.now.Add(d), nil, call, a, b)
}

// Stop cancels the timer if it has not fired. It reports whether the
// timer was still pending. Stopping an already-fired or already-stopped
// timer is a no-op.
func (t Timer) Stop() bool {
	if !t.Pending() {
		return false
	}
	s := t.s
	s.slots[t.slot].state = slotCancelled
	if s.shared {
		s.cancelMu.Lock()
		s.cancelled++
		s.cancelMu.Unlock()
		return true
	}
	s.cancelled++
	s.maybeCompact()
	return true
}

// SetShared declares that goroutines other than the owner may Stop the
// scheduler's timers, one goroutine per timer, while the owner is idle:
// the sharded engine's control scheduler keeps every timer armed before
// the engine installed, and shard workers cancel them concurrently (a
// TCP sender's handshake timer, on SYN-ACK). Stop then serializes its
// counter update and leaves the cancelled entries to be discarded when
// they reach the top of the heap, instead of compacting the heap from a
// foreign goroutine.
func (s *Scheduler) SetShared() { s.shared = true }

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	if t.s == nil {
		return false
	}
	sl := &t.s.slots[t.slot]
	return sl.gen == t.gen && sl.state == slotPending
}

// When returns the time at which the timer will fire. It is only
// meaningful while Pending.
func (t Timer) When() Time {
	if !t.Pending() {
		return -1
	}
	return t.s.slots[t.slot].at
}

// --- 4-ary heap ----------------------------------------------------------

// push appends e and restores the heap property by sifting up.
//
//dmz:hotpath
func (s *Scheduler) push(e event) {
	s.events = append(s.events, e)
	i := len(s.events) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(&s.events[parent]) {
			break
		}
		s.events[i] = s.events[parent]
		i = parent
	}
	s.events[i] = e
}

// popTop removes and returns the minimum event. The caller guarantees
// the heap is non-empty.
//
//dmz:hotpath
func (s *Scheduler) popTop() event {
	top := s.events[0]
	n := len(s.events) - 1
	last := s.events[n]
	s.events[n] = event{} // drop fn/operand references for the GC
	s.events = s.events[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
	return top
}

// siftDown places e into the hole at index i, moving smaller children up.
//
//dmz:hotpath
func (s *Scheduler) siftDown(i int, e event) {
	n := len(s.events)
	for {
		first := i*4 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.events[c].less(&s.events[min]) {
				min = c
			}
		}
		if !s.events[min].less(&e) {
			break
		}
		s.events[i] = s.events[min]
		i = min
	}
	s.events[i] = e
}

// skim discards lazily cancelled events from the top of the heap so
// that events[0], when present, is live.
//
//dmz:hotpath
func (s *Scheduler) skim() {
	for len(s.events) > 0 {
		e := &s.events[0]
		if s.slots[e.slot].state != slotCancelled {
			return
		}
		slot := e.slot
		s.popTop()
		s.freeSlot(slot)
		s.cancelled--
	}
}

// maybeCompact rebuilds the heap without its cancelled entries once
// they outnumber live ones (and are worth the O(n) pass). Timer-churn
// workloads — a TCP sender resetting its RTO on every ACK — would
// otherwise grow the heap without bound. Compaction cannot change pop
// order: (time, seq) is a total order, so any heap layout of the same
// live events pops identically.
//
//dmz:hotpath
func (s *Scheduler) maybeCompact() {
	if s.cancelled < 1024 || s.cancelled*2 < len(s.events) {
		return
	}
	w := 0
	for r := range s.events {
		if s.slots[s.events[r].slot].state == slotCancelled {
			s.freeSlot(s.events[r].slot)
			continue
		}
		s.events[w] = s.events[r]
		w++
	}
	for i := w; i < len(s.events); i++ {
		s.events[i] = event{}
	}
	s.events = s.events[:w]
	s.cancelled = 0
	for i := (w - 2) / 4; i >= 0; i-- {
		s.siftDown(i, s.events[i])
	}
}

// --- execution -----------------------------------------------------------

// step executes the earliest pending event. It reports false when no
// live events remain.
//
//dmz:hotpath
func (s *Scheduler) step() bool {
	s.skim()
	if len(s.events) == 0 {
		return false
	}
	e := s.popTop()
	s.freeSlot(e.slot) // handles go stale before the callback runs
	if e.at < s.now {
		s.ClockRegressions++
	}
	s.now = e.at
	s.Processed++
	s.tagCounts[e.tag]++
	if e.call != nil {
		e.call(e.a, e.b)
	} else {
		e.fn()
	}
	return true
}

// TagCount is one component's executed-event count.
type TagCount struct {
	Tag   string
	Count uint64
}

// EventCounts returns per-component executed-event counts for events
// scheduled through AtTag/AfterTag/EveryTag, sorted by component name
// so callers iterate deterministically. Untagged events (Tag 0) are
// not included; Processed covers everything.
func (s *Scheduler) EventCounts() []TagCount {
	names := tagTable()
	out := make([]TagCount, 0, len(names))
	for i := 1; i < len(names); i++ {
		if c := s.tagCounts[i]; c > 0 {
			out = append(out, TagCount{Tag: names[i], Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// Run executes events until the queue is empty or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.step() {
	}
}

// RunUntil executes events with timestamps at or before t, then advances
// the clock to exactly t. Events scheduled beyond t remain pending.
func (s *Scheduler) RunUntil(t Time) {
	s.stopped = false
	for !s.stopped {
		s.skim()
		if len(s.events) == 0 || s.events[0].at > t {
			break
		}
		s.step()
	}
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// RunFor advances the simulation by d. See RunUntil.
func (s *Scheduler) RunFor(d time.Duration) {
	s.RunUntil(s.now.Add(d))
}

// Stop makes the currently executing Run/RunUntil return after the
// current event completes. Pending events stay queued.
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called since the last Run or
// RunUntil started (the flag is cleared when a run begins). The sharded
// engine checks it between synchronization windows so that a Stop issued
// from inside an event ends the whole engine run, not just one
// scheduler's window.
func (s *Scheduler) Stopped() bool { return s.stopped }

// Pending returns the number of queued live events (lazily cancelled
// entries awaiting discard are not counted).
func (s *Scheduler) Pending() int { return len(s.events) - s.cancelled }

// NextEventTime returns the timestamp of the earliest live pending
// event, or ok=false when the queue is empty. The sharded engine uses it
// to size conservative synchronization windows (next global event plus
// lookahead); it discards lazily cancelled entries from the top of the
// queue so an already-stopped timer never shortens a window.
func (s *Scheduler) NextEventTime() (t Time, ok bool) {
	s.skim()
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// Ticker invokes a function periodically until stopped. Each tick
// reschedules in place through a static CallFunc, so a running ticker
// allocates nothing after creation.
type Ticker struct {
	s        *Scheduler
	interval time.Duration
	fn       func()
	tag      Tag
	timer    Timer
	stopped  bool
}

// Every schedules fn to run every interval, with the first invocation one
// interval from now. It panics on a nonpositive interval.
func (s *Scheduler) Every(interval time.Duration, fn func()) *Ticker {
	return s.EveryTag(0, interval, fn)
}

// EveryTag is Every with component attribution; see AtTag.
func (s *Scheduler) EveryTag(tag Tag, interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: Every requires a positive interval")
	}
	t := &Ticker{s: s, interval: interval, fn: fn, tag: tag}
	t.timer = s.AfterCall(tag, interval, tickerFire, t, nil)
	return t
}

// tickerFire is the static tick callback: run the user function, then
// reschedule in place — unless Stop ran, either before this tick was
// popped (stopped flag) or from inside the callback itself.
//
//dmz:hotpath
func tickerFire(a, _ any) {
	t := a.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if t.stopped {
		return
	}
	t.timer = t.s.AfterCall(t.tag, t.interval, tickerFire, t, nil)
}

// Stop cancels future ticks. It is safe to call from inside the
// ticker's own callback (no further tick will be scheduled), and more
// than once. A stopped ticker never fires again; start a new one with
// Every to resume ticking.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}

// NewRand returns a deterministic random number generator for a simulation
// component. Each component should own its generator so that adding a
// component does not perturb the random streams of the others.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
