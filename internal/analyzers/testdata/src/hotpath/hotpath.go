// Fixture for the hotpath analyzer: //dmz:hotpath functions must not
// contain known allocation sources.
package hotpath

import "fmt"

// Scheduler mirrors the sim.Scheduler closure/closure-free API split.
type Scheduler struct{}

// CallFunc mirrors sim.CallFunc.
type CallFunc func(a, b any)

func (s *Scheduler) At(t int64, fn func())                   {}
func (s *Scheduler) After(d int64, fn func())                {}
func (s *Scheduler) AtCall(t int64, c CallFunc, a, b any)    {}
func (s *Scheduler) AfterCall(d int64, c CallFunc, a, b any) {}

type port struct {
	sched *Scheduler
	n     int
	name  string
}

// send is the per-packet fast path.
//
//dmz:hotpath
func (p *port) send(pkt *int) {
	p.sched.At(0, func() { p.n++ }) // want `Scheduler\.At schedules a closure` `func literal allocates a closure`
	_ = fmt.Sprintf("pkt %d", *pkt) // want `fmt\.Sprintf allocates`
	b := make([]byte, 8)            // want `make allocates`
	_ = string(b)                   // want `string conversion of a slice allocates`
	_ = p.name + "!"                // want `string concatenation allocates`
	q := new(port)                  // want `new allocates`
	_ = q
}

// sendFast is the compliant version: closure-free scheduling through a
// static callback, no formatting, no conversions. No diagnostics.
//
//dmz:hotpath
func (p *port) sendFast(pkt *int) {
	p.sched.AfterCall(0, fire, p, pkt)
}

// fire is a static callback marked through its var declaration.
//
//dmz:hotpath
var fire CallFunc = func(a, b any) {
	_ = fmt.Sprint(a) // want `fmt\.Sprint allocates`
}

// panicPath: allocations that only run while panicking are exempt, and
// a justified cold-path allocation is suppressed by //dmzvet:alloc.
//
//dmz:hotpath
func (p *port) panicPath() {
	if p.n < 0 {
		panic(fmt.Sprintf("bad n %d", p.n)) // ok: panic argument
	}
	//dmzvet:alloc first-use initialization, not steady state
	buf := make([]byte, 64)
	_ = buf
}

// unmarked functions are not subject to hot-path rules.
func unmarked() string {
	return fmt.Sprintf("%d", 42)
}

// Constant-folded concatenation never allocates. No diagnostics.
//
//dmz:hotpath
func constConcat() string {
	const prefix = "a"
	return prefix + "b"
}

// injector mirrors the fault-injection pattern: onset/clear actions are
// scheduled objects, and the per-packet loss overlay sits on the hot
// path.
type injector struct {
	sched  *Scheduler
	armed  bool
	target *port
}

// scheduleBad is the anti-pattern: wrapping each fault action in a
// closure at schedule time.
//
//dmz:hotpath
func (in *injector) scheduleBad(onset int64) {
	in.sched.At(onset, func() { in.armed = true })  // want `Scheduler\.At schedules a closure` `func literal allocates a closure`
	in.sched.After(10, func() { in.armed = false }) // want `Scheduler\.After schedules a closure` `func literal allocates a closure`
}

// schedule is the sanctioned shape: static callbacks through
// AtCall/AfterCall with the injector as the receiver argument. No
// diagnostics.
//
//dmz:hotpath
func (in *injector) schedule(onset int64) {
	in.sched.AtCall(onset, onsetFire, in, nil)
	in.sched.AfterCall(10, clearFire, in, nil)
}

func onsetFire(a, b any) { a.(*injector).armed = true }
func clearFire(a, b any) { a.(*injector).armed = false }

// drop is the wrapped loss model's per-packet decision. It must stay
// allocation-free: formatting a trace label here would allocate once
// per packet.
//
//dmz:hotpath
func (in *injector) drop(pkt *int) bool {
	if !in.armed {
		return false
	}
	_ = fmt.Sprintf("fault drop %d", *pkt) // want `fmt\.Sprintf allocates`
	return true
}

// Span emission mirrors the tcp.Sender phase machine: per-ACK state
// transitions emit telemetry events, so the emission path is marked
// hot and must stay allocation-free when no bus is attached.

// bus mirrors telemetry.Bus's enable/emit surface.
type bus struct{ subs int }

type event struct {
	at    int64
	kind  int
	flow  string
	label string
}

func (b *bus) Enabled() bool { return b != nil && b.subs > 0 }
func (b *bus) Emit(ev event) {}

type sender struct {
	bus    *bus
	flow   string
	phase  string
	sndUna int64
	acked  int64
}

// setPhase is the sanctioned shape: one Enabled/no-change guard up
// front, pre-interned constant labels, and a by-value event literal —
// nothing allocates, so an untelemetered run pays a single branch. No
// diagnostics.
//
//dmz:hotpath
func (s *sender) setPhase(phase string) {
	if !s.bus.Enabled() || s.phase == phase {
		return
	}
	s.phase = phase
	s.bus.Emit(event{at: 0, kind: 1, flow: s.flow, label: phase})
}

// setPhaseBad is the anti-pattern: building the label dynamically puts
// an allocation on every phase transition, bus or no bus.
//
//dmz:hotpath
func (s *sender) setPhaseBad(phase string, seq int64) {
	label := fmt.Sprintf("%s@%d", phase, seq) // want `fmt\.Sprintf allocates`
	key := s.flow + "/" + phase               // want `string concatenation allocates` `string concatenation allocates`
	if !s.bus.Enabled() || s.phase == phase {
		return
	}
	s.phase = phase
	s.bus.Emit(event{at: 0, kind: 1, flow: key, label: label})
}

// A cross-shard handoff ring: push runs on the producing shard's event
// goroutine once per cut-crossing packet, so it is subject to the same
// zero-allocation contract as the scheduler itself.

type xEntry struct {
	pkt *int
	at  int64
	seq uint64
}

type xRing struct {
	buf      []xEntry
	mask     uint64
	tail     uint64
	overflow []xEntry
}

// pushBad is the anti-pattern: boxing each handoff in a fresh heap
// entry (and formatting a debug label) allocates per crossing packet.
//
//dmz:hotpath
func (r *xRing) pushBad(pkt *int, at int64, seq uint64) {
	e := &xEntry{pkt: pkt, at: at, seq: seq} // want `&composite literal allocates`
	_ = fmt.Sprintf("xfer seq=%d", seq)      // want `fmt\.Sprintf allocates`
	r.buf[r.tail&r.mask] = *e
	r.tail++
}

// push is the sanctioned shape: a by-value store into the preallocated
// ring slot, with the full-ring spill (which cannot block without
// deadlocking the draining barrier) carrying an explicit escape. Only
// the spill may allocate, and only when the ring is full.
//
//dmz:hotpath
func (r *xRing) push(pkt *int, at int64, seq uint64) {
	if r.tail-uint64(len(r.overflow)) == uint64(len(r.buf)) {
		//dmzvet:alloc overflow spill: a full ring must not block the producer
		r.overflow = append(r.overflow, xEntry{pkt: pkt, at: at, seq: seq})
		return
	}
	r.buf[r.tail&r.mask] = xEntry{pkt: pkt, at: at, seq: seq}
	r.tail++
}

// The fluid engine's tick mirrors internal/fluid: a control-plane
// update over preallocated aggregate and port slices. It runs every
// tick for the whole simulation, so it carries the same
// zero-allocation contract as the packet path.

type fluidQueue struct {
	bytes, offered, delivered, dropped int64
	share                              float64
}

type fluidPort struct {
	q            *fluidQueue
	capBits, in  float64
	ratio, dropP float64
}

type fluidAgg struct {
	name   string
	path   []*fluidPort
	demand float64
}

type fluidEngine struct {
	aggs  []*fluidAgg
	ports []*fluidPort
	dt    float64
}

// tickBad is the anti-pattern: per-tick formatting and rebuilding the
// port set allocate once per tick, every tick, forever.
//
//dmz:hotpath
func (e *fluidEngine) tickBad() {
	seen := make(map[string]bool, len(e.aggs)) // want `make allocates`
	for _, a := range e.aggs {
		seen[a.name] = true
		_ = fmt.Sprintf("agg %s demand %f", a.name, a.demand) // want `fmt\.Sprintf allocates`
	}
}

// tick is the sanctioned shape: two passes over preallocated slices,
// arithmetic only, state updated in place. No diagnostics.
//
//dmz:hotpath
func (e *fluidEngine) tick() {
	for _, a := range e.aggs {
		rate := a.demand
		for _, ps := range a.path {
			ps.in += rate
			rate *= ps.ratio
		}
	}
	for _, ps := range e.ports {
		grant := ps.capBits
		if grant > ps.in {
			grant = ps.in
		}
		through := int64(grant * e.dt / 8)
		ps.q.delivered += through
		ps.q.bytes = 0
		ps.q.share = grant / ps.capBits
		ps.in = 0
	}
}
