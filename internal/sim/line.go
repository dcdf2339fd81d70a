package sim

import "fmt"

// Line is a delay line: a FIFO of events on one scheduler whose keys
// never decrease and which share one callback and first operand — the
// packets propagating on one wire, each arriving a fixed delay after it
// was sent. Every entry keeps the (time, lane, seq) key a direct
// schedule would have given it, but only the line's head has a heap
// entry; firing it replaces it at the top of the heap with the next
// entry in one sift-down. So a line executes exactly the events that
// scheduling each entry directly would have, in the same order, while
// the heap holds one entry per line instead of one per queued event.
// Entries cannot be cancelled.
//
// A lane-0 line takes each entry's seq from the scheduler's counter at
// Push, as AtCall does. A line on a nonzero lane carries the sharded
// engine's cross-shard deliveries (see internal/shard): its caller
// assigns each entry's lane sequence through PushLane.
type Line struct {
	s    *Scheduler
	tag  Tag
	lane uint32
	call CallFunc
	a    any

	// buf is a ring of the queued entries, a power of two long; the
	// head is buf[head], and the heap entry naming slot is its key.
	buf  []lineEntry
	head int
	n    int
	slot uint32

	// tailAt and tailSeq are the key of the last entry pushed, which
	// the next push must not precede.
	tailAt  Time
	tailSeq uint64
}

type lineEntry struct {
	at  Time
	seq uint64
	b   any
}

// NewLine returns an empty line on s whose entries run call(a, b) with
// each entry's own b, attributed to tag. lane 0 makes a local line fed
// by Push; a nonzero lane makes a lane line fed by PushLane.
func (s *Scheduler) NewLine(tag Tag, lane uint32, call CallFunc, a any) *Line {
	return &Line{s: s, tag: tag, lane: lane, call: call, a: a}
}

// Len returns the number of entries queued on the line.
func (l *Line) Len() int { return l.n }

// Push queues call(a, b) to run at absolute time t on a lane-0 line,
// keyed as AtCall would key it at this moment. It panics on a lane
// line, and on a time before now or before the line's last entry.
//
//dmz:hotpath
func (l *Line) Push(t Time, b any) {
	s := l.s
	if l.lane != 0 {
		panic(fmt.Sprintf("sim: Push on a line of lane %d; lane lines take PushLane", l.lane))
	}
	if t < l.tailAt || t < s.now {
		panic(fmt.Sprintf("sim: line push at %v before now %v or the line's last entry at %v", t, s.now, l.tailAt))
	}
	s.seq++
	l.put(t, s.seq, b)
}

// PushLane queues call(a, b) to run at absolute time t on a lane line,
// ordered after every lane-0 event at t and against other lanes' events
// by (lane, seq). The caller owns seq assignment. It panics on a lane-0
// line, on a time before now, and on a key that does not follow the
// line's last entry.
//
//dmz:hotpath
func (l *Line) PushLane(seq uint64, t Time, b any) {
	s := l.s
	if l.lane == 0 {
		panic("sim: PushLane on a lane-0 line; lane 0 is the local lane")
	}
	if t < s.now || t < l.tailAt || t == l.tailAt && seq <= l.tailSeq {
		panic(fmt.Sprintf("sim: line push of (%v, seq %d) before now %v or the line's last entry (%v, seq %d)",
			t, seq, s.now, l.tailAt, l.tailSeq))
	}
	l.put(t, seq, b)
}

// put appends an entry whose key the caller has checked. An entry put
// on an empty line becomes its head and takes a slot and a heap entry.
//
//dmz:hotpath
func (l *Line) put(t Time, seq uint64, b any) {
	s := l.s
	l.tailAt, l.tailSeq = t, seq
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = lineEntry{at: t, seq: seq, b: b}
	l.n++
	if l.n > 1 {
		s.behind++
		return
	}
	l.slot = s.enqueue(l.tag, l.lane, seq, t, nil, l.call, l.a, l)
	s.slots[l.slot].state = slotLine
}

// grow doubles the ring, unwrapping it so the head moves to index 0.
func (l *Line) grow() {
	size := 2 * len(l.buf)
	if size == 0 {
		size = 16
	}
	//dmzvet:alloc a line's ring grows to its wire's packets in flight once, then is reused
	buf := make([]lineEntry, size)
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf, l.head = buf, 0
}

// shift removes the head, which step is about to fire, and returns its
// operand. The next entry takes over the head's slot and heap entry in
// place — one sift-down from the top instead of a pop and a push — or,
// when the line empties, the entry and slot are released.
//
//dmz:hotpath
func (l *Line) shift() any {
	s := l.s
	h := &l.buf[l.head]
	b := h.b
	h.b = nil
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	if l.n == 0 {
		s.popTop()
		s.freeSlot(l.slot)
		return b
	}
	s.behind--
	next := &l.buf[l.head]
	s.siftDown(0, event{at: next.at, seq: next.seq, lane: l.lane, slot: l.slot})
	return b
}
