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
// hand-rolled 4-ary min-heap of 24-byte, pointer-free ordering keys (no
// per-event allocation, no interface boxing), each naming a slot in a
// free-listed table that holds the event's callback and gives timers
// their identity, so a Timer is a plain {scheduler, slot, generation}
// value. Timer cancellation is lazy (a slot-state check at pop instead
// of O(log n) removal), and the heap is compacted once cancelled
// entries number at least 64 and at least half of it.
//
// A Line is a delay line: a FIFO of events whose keys never decrease,
// such as the packets propagating on one wire. Only its head sits in
// the heap, under the key a direct schedule would have given it, and
// firing the head replaces it at the top of the heap with the next
// entry in one sift-down. So a line changes no execution order, and the
// heap holds one entry per wire instead of one per packet in flight.
// The sift-down picks each node's minimum child with a branch-free
// tournament, because the surviving near-future compares are ones a
// branch predictor cannot guess.
package sim

import (
	"fmt"
	"math/bits"
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

// event is one pending queue entry, stored inline in the heap slice:
// only the ordering key and the timer slot that holds the callback, so
// a heap move copies 24 pointer-free bytes.
type event struct {
	at   Time
	seq  uint64 // scheduling order within a lane; breaks ties deterministically
	lane uint32 // 0 = local events (seq = scheduling order); >0 = cross-shard delivery lanes
	slot uint32
}

// less returns 1 when x orders before y by (time, lane, seq) — the
// kernel's total order — and 0 otherwise. It subtracts y's key from x's
// as one 192-bit number, time the most significant word and seq the
// least, and returns the final borrow, so a compare costs no branch.
// Times are never negative (nothing schedules before now, and the clock
// starts at zero), so time compares correctly as unsigned.
//
// Lane 0 is the local lane: every event scheduled through the ordinary
// At/After API, or pushed onto a lane-0 Line, lands there with seq taken
// from the scheduler's own counter, so a single-scheduler run orders
// exactly as it always has — (time, scheduling order). Nonzero lanes
// exist for the sharded engine (netsim.Engine): a cross-shard packet
// delivery is keyed by its link-direction lane and a per-lane sequence
// assigned at the sending side, which is the same key no matter how many
// shards the topology is cut into. That shard-count-invariant tie-break
// is what makes sharded runs byte-identical to each other.
//
//dmz:hotpath
func less(x, y *event) uint64 {
	_, b := bits.Sub64(x.seq, y.seq, 0)
	_, b = bits.Sub64(uint64(x.lane), uint64(y.lane), b)
	_, b = bits.Sub64(uint64(x.at), uint64(y.at), b)
	return b
}

// Timer slot states.
const (
	slotFree uint8 = iota
	slotPending
	slotCancelled
	slotLine // the head of a Line; b holds the *Line
)

// timerSlot is the stable identity and payload of one scheduled event.
// A slot belongs to exactly one heap entry from schedule until that
// entry is popped, skimmed or compacted away; then freeSlot recycles it
// and increments its generation, so stale Timer handles are detected
// by comparison. Exactly one of fn/call is non-nil while it is in use.
// A non-empty Line holds one slot for its head's heap entry, from its
// first push until it empties.
type timerSlot struct {
	at    Time // fire time, for Timer.When
	fn    func()
	call  CallFunc
	a, b  any
	gen   uint32
	state uint8
	tag   Tag // component attribution; 0 = untagged
}

// Scheduler owns the simulation clock and the pending event queue.
// The zero value is not usable; call New.
type Scheduler struct {
	now Time
	seq uint64

	// events is a 4-ary min-heap of inline event keys. 4-ary rather
	// than binary: sift-down does 3/4 fewer levels of (cache-missing)
	// parent/child hops for this event mix, and the inline keys make
	// each level one contiguous 4-entry scan. See DESIGN.md.
	events []event

	// slots / freeSlots implement the timer-identity table. cancelled
	// counts lazily cancelled events still occupying heap entries; when
	// they dominate the heap it is compacted in one O(n) pass.
	slots     []timerSlot
	freeSlots []uint32
	cancelled int

	// behind counts Line entries waiting behind their line's head,
	// which have no heap entry of their own.
	behind int

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

// enqueue takes a slot from the free-list (or grows the table), stores
// the event's callback there, pushes its key onto the heap, and returns
// the slot.
//
//dmz:hotpath
func (s *Scheduler) enqueue(tag Tag, lane uint32, seq uint64, t Time, fn func(), call CallFunc, a, b any) uint32 {
	var idx uint32
	if n := len(s.freeSlots); n > 0 {
		idx = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	} else {
		s.slots = append(s.slots, timerSlot{})
		idx = uint32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.at, sl.fn, sl.call, sl.a, sl.b = t, fn, call, a, b
	sl.state, sl.tag = slotPending, tag
	s.push(event{at: t, seq: seq, lane: lane, slot: idx})
	return idx
}

// freeSlot recycles a slot whose heap entry has been popped or
// compacted away, invalidating all outstanding handles to it and
// dropping its callback references for the GC.
//
//dmz:hotpath
func (s *Scheduler) freeSlot(idx uint32) {
	sl := &s.slots[idx]
	sl.gen++
	sl.state = slotFree
	sl.fn, sl.call, sl.a, sl.b = nil, nil, nil, nil
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
	idx := s.enqueue(tag, 0, s.seq, t, fn, call, a, b)
	return Timer{s: s, slot: idx, gen: s.slots[idx].gen}
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
		if less(&e, &s.events[parent]) == 0 {
			break
		}
		s.events[i] = s.events[parent]
		i = parent
	}
	s.events[i] = e
}

// popTop removes the minimum event. The caller guarantees the heap is
// non-empty.
//
//dmz:hotpath
func (s *Scheduler) popTop() {
	n := len(s.events) - 1
	last := s.events[n]
	s.events = s.events[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
}

// siftDown places e into the hole at index i, moving smaller children
// up. A node with all four children picks the smallest by a two-round
// tournament — the smaller of each pair, then of the two winners — in
// which every compare is a borrow bit and every pick is arithmetic, so
// the scan has no branch to mispredict; keys are unique, so which of two
// equal children wins cannot matter. Only the loop exit branches.
//
//dmz:hotpath
func (s *Scheduler) siftDown(i int, e event) {
	ev := s.events
	n := len(ev)
	for {
		first := i*4 + 1
		var min int
		if first+4 <= n {
			kids := ev[first : first+4]
			x := int(less(&kids[1], &kids[0]))
			y := 2 + int(less(&kids[3], &kids[2]))
			min = first + (x ^ (x^y)&-int(less(&kids[y&3], &kids[x&3])))
		} else if first < n {
			min = first
			for c := first + 1; c < n; c++ {
				if less(&ev[c], &ev[min]) != 0 {
					min = c
				}
			}
		} else {
			break
		}
		if less(&ev[min], &e) == 0 {
			break
		}
		ev[i] = ev[min]
		i = min
	}
	ev[i] = e
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

// compactFloor is the fewest cancelled entries worth an O(n) compaction
// pass. It is low because lines keep the heap small — hundreds of
// entries, not thousands, many of them cancelled RTO, delayed-ACK and
// interest timers — so dead entries cost sift levels long before a
// thousand accumulate; the half-the-heap rule keeps the pass amortised
// O(1) per Stop.
const compactFloor = 64

// maybeCompact rebuilds the heap without its cancelled entries once
// they outnumber live ones (and are worth the O(n) pass). Timer-churn
// workloads — a TCP sender resetting its RTO on every ACK — would
// otherwise grow the heap without bound. Compaction cannot change pop
// order: (time, lane, seq) is a total order, so any heap layout of the
// same live events pops identically.
//
//dmz:hotpath
func (s *Scheduler) maybeCompact() {
	if s.cancelled < compactFloor || s.cancelled*2 < len(s.events) {
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
	s.events = s.events[:w]
	s.cancelled = 0
	if w < 2 {
		return
	}
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
	e := s.events[0]
	sl := &s.slots[e.slot]
	fn, call, a, b := sl.fn, sl.call, sl.a, sl.b
	s.tagCounts[sl.tag]++
	if sl.state == slotLine {
		b = b.(*Line).shift()
	} else {
		s.popTop()
		s.freeSlot(e.slot) // handles go stale before the callback runs
	}
	if e.at < s.now {
		s.ClockRegressions++
	}
	s.now = e.at
	s.Processed++
	if call != nil {
		call(a, b)
	} else {
		fn()
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
	s.RunThrough(t)
	if !s.stopped {
		s.AdvanceTo(t)
	}
}

// RunThrough executes events with timestamps at or before t, leaving the
// clock at the last one executed. Events scheduled beyond t remain
// pending.
func (s *Scheduler) RunThrough(t Time) {
	s.stopped = false
	for !s.stopped {
		s.skim()
		if len(s.events) == 0 || s.events[0].at > t {
			break
		}
		s.step()
	}
}

// AdvanceTo moves the clock forward to t, as if an empty stretch of
// simulated time passed; a clock at or past t is left alone. The caller
// must already have run every event at or before t.
func (s *Scheduler) AdvanceTo(t Time) {
	if s.now < t {
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

// ClearStop forgets a Stop whose run has already returned. The sharded
// engine calls it on its control scheduler when a network run starts:
// that scheduler runs only at barriers with control events due, so a
// run of its own may not come along to clear the flag.
func (s *Scheduler) ClearStop() { s.stopped = false }

// Pending returns the number of queued live events, Line entries
// included (lazily cancelled entries awaiting discard are not counted).
func (s *Scheduler) Pending() int { return len(s.events) - s.cancelled + s.behind }

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
