package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// refEvent is the sort-based reference model's view of one live event:
// the kernel must fire events in ascending (at, lane, seq). On lane 0
// seq is the global scheduling call order — timers and lane-0 line
// pushes alike draw it from the scheduler's counter — and on a lane it
// is the caller's lane sequence.
type refEvent struct {
	at   Time
	lane uint32
	seq  int
	id   int
}

// TestHeapMatchesReferenceModel drives randomized schedule / cancel /
// reschedule sequences against the 4-ary lazy-cancel heap, interleaved
// with pushes onto two lines (one on lane 0, one on lane 3), and checks
// the fired order against a plain sort of the surviving events. Times
// are drawn from a deliberately small range so ties between timers,
// lines and lanes are common (a line push draws from the same range,
// raised to the line's last time), and the table includes degenerate
// (0, 1) and large (10k) sizes to cross the compaction threshold, plus
// cancel-everything cases in which the last compaction finds no live
// timer at all, at and above the compaction floor.
func TestHeapMatchesReferenceModel(t *testing.T) {
	cases := []struct {
		n         int
		cancelAll bool // cancel every timer and reschedule none
	}{
		{0, false}, {1, false}, {2, false}, {3, false}, {7, false},
		{64, false}, {1000, false}, {10000, false},
		{64, true}, {128, true}, {1024, true}, {2048, true},
	}
	const lane = 3
	for _, tc := range cases {
		n := tc.n
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			s := New()
			var fired []int
			record := func(_, b any) { fired = append(fired, b.(int)) }
			local := s.NewLine(0, 0, record, nil)
			laned := s.NewLine(0, lane, record, nil)

			schedOrder := 0 // the scheduler's lane-0 seq counter
			laneSeq := 0
			nextID := 0
			type live struct {
				tm Timer
				re refEvent
			}
			var lives []live
			var lineEvents []refEvent // lines cannot cancel: all survive
			var localTail, laneTail Time

			draw := func() Time { return Time(rng.Intn(50)) * Time(time.Microsecond) }
			scheduleOne := func() {
				at := draw()
				id := nextID
				nextID++
				schedOrder++
				tm := s.At(at, func() { fired = append(fired, id) })
				lives = append(lives, live{tm, refEvent{at, 0, schedOrder, id}})
			}
			pushLines := func() {
				switch rng.Intn(4) {
				case 0:
					localTail = max(localTail, draw())
					id := nextID
					nextID++
					schedOrder++
					local.Push(localTail, id)
					lineEvents = append(lineEvents, refEvent{localTail, 0, schedOrder, id})
				case 1:
					laneTail = max(laneTail, draw())
					id := nextID
					nextID++
					laneSeq++
					laned.PushLane(uint64(laneSeq), laneTail, id)
					lineEvents = append(lineEvents, refEvent{laneTail, lane, laneSeq, id})
				}
			}

			for i := 0; i < n; i++ {
				scheduleOne()
				pushLines()
			}

			// Churn: cancel ~half the events in random order; half of the
			// cancellations immediately reschedule a replacement (fresh
			// event, new time, new seq) — the RTO-reset pattern.
			cancels := n / 2
			if tc.cancelAll {
				cancels = n
			}
			for i := 0; i < cancels && len(lives) > 0; i++ {
				j := rng.Intn(len(lives))
				if !lives[j].tm.Stop() {
					t.Fatalf("n=%d seed=%d: Stop on live timer reported false", n, seed)
				}
				lives[j] = lives[len(lives)-1]
				lives = lives[:len(lives)-1]
				if !tc.cancelAll && rng.Intn(2) == 0 {
					scheduleOne()
				}
				pushLines()
			}

			if got, want := s.Pending(), len(lives)+len(lineEvents); got != want {
				t.Fatalf("n=%d seed=%d: Pending = %d, want %d live", n, seed, got, want)
			}

			want := lineEvents
			for _, l := range lives {
				want = append(want, l.re)
			}
			sort.Slice(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if a.at != b.at {
					return a.at < b.at
				}
				if a.lane != b.lane {
					return a.lane < b.lane
				}
				return a.seq < b.seq
			})

			s.Run()

			if len(fired) != len(want) {
				t.Fatalf("n=%d seed=%d: fired %d events, want %d", n, seed, len(fired), len(want))
			}
			for i := range want {
				if fired[i] != want[i].id {
					t.Fatalf("n=%d seed=%d: fired[%d] = id %d, want id %d",
						n, seed, i, fired[i], want[i].id)
				}
			}
			if s.Pending() != 0 {
				t.Fatalf("n=%d seed=%d: Pending = %d after drain", n, seed, s.Pending())
			}
		}
	}
}

// TestEventIsPointerFree pins the heap entry layout: an event is a
// 24-byte ordering key with no field the GC must scan, so a heap move is
// a small, write-barrier-free copy. The callback lives in the timer slot.
func TestEventIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 24 {
		t.Errorf("event is %d bytes, want at most 24", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Func, reflect.Interface, reflect.Pointer, reflect.UnsafePointer,
			reflect.Slice, reflect.Map, reflect.Chan, reflect.String:
			t.Errorf("%s has kind %s, which holds a pointer", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("event", reflect.TypeOf(event{}))
}

// TestHeapMidRunCancellation checks that an event firing at time t can
// lazily cancel events queued for later times — and for the same
// timestamp — and the kernel skips them without disturbing order.
func TestHeapMidRunCancellation(t *testing.T) {
	s := New()
	var fired []string

	var victims []Timer
	// Same-timestamp victim: scheduled after the killer, so the killer
	// pops first and the victim must be skimmed at the same clock value.
	s.At(Time(time.Millisecond), func() {
		fired = append(fired, "killer")
		for _, v := range victims {
			v.Stop()
		}
	})
	victims = append(victims, s.At(Time(time.Millisecond), func() { fired = append(fired, "sameTime") }))
	victims = append(victims, s.At(Time(2*time.Millisecond), func() { fired = append(fired, "later") }))
	s.At(Time(3*time.Millisecond), func() { fired = append(fired, "survivor") })

	s.Run()
	if len(fired) != 2 || fired[0] != "killer" || fired[1] != "survivor" {
		t.Fatalf("fired = %v, want [killer survivor]", fired)
	}
	if s.Processed != 2 {
		t.Errorf("Processed = %d, want 2 (cancelled events must not count)", s.Processed)
	}
}

// TestHeapCompaction forces the O(n) compaction pass (cancelled >=
// compactFloor and cancelled >= half the heap) and verifies pop order,
// Pending bookkeeping, and that handles to compacted-away timers are
// inert.
func TestHeapCompaction(t *testing.T) {
	s := New()
	var fired []int
	var cancelled []Timer
	const total = 5000

	for i := 0; i < total; i++ {
		i := i
		tm := s.At(Time(i)*Time(time.Microsecond), func() { fired = append(fired, i) })
		if i%5 != 0 {
			cancelled = append(cancelled, tm)
		}
	}
	for _, tm := range cancelled {
		tm.Stop()
	}
	wantLive := total - len(cancelled)
	if got := s.Pending(); got != wantLive {
		t.Fatalf("Pending = %d, want %d", got, wantLive)
	}
	// Compaction must have run: 4000 cancellations against a 5000-entry
	// heap crosses both thresholds. The cancelled counter resets on the
	// compaction pass, so it must be far below the number of Stops.
	if s.cancelled >= len(cancelled)/4 {
		t.Fatalf("compaction did not run: cancelled = %d", s.cancelled)
	}
	for _, tm := range cancelled {
		if tm.Pending() {
			t.Fatal("compacted-away timer still Pending")
		}
		if tm.Stop() {
			t.Fatal("Stop on compacted-away timer reported true")
		}
	}
	s.Run()
	if len(fired) != wantLive {
		t.Fatalf("fired %d events, want %d", len(fired), wantLive)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i-1] >= fired[i] {
			t.Fatalf("out of order after compaction: %d before %d", fired[i-1], fired[i])
		}
	}
}

// TestStaleHandleDoesNotCancelRecycledSlot pins the generation check: a
// handle to a fired timer whose slot has been recycled for a new timer
// must not cancel the new occupant.
func TestStaleHandleDoesNotCancelRecycledSlot(t *testing.T) {
	s := New()
	ran := false
	old := s.After(time.Millisecond, func() {})
	s.RunFor(time.Millisecond) // old fires; its slot returns to the free-list

	fresh := s.After(time.Millisecond, func() { ran = true })
	if fresh.slot != old.slot {
		t.Fatalf("test premise broken: slot not recycled (%d vs %d)", fresh.slot, old.slot)
	}
	if old.Stop() {
		t.Error("stale handle Stop reported true")
	}
	if !fresh.Pending() {
		t.Fatal("stale handle cancelled the recycled slot's new timer")
	}
	s.Run()
	if !ran {
		t.Error("recycled-slot timer never fired")
	}
}

// TestTimerStaleDuringOwnCallback pins the documented semantics that a
// timer's handle reads as already-fired (not pending, Stop false) from
// inside its own callback.
func TestTimerStaleDuringOwnCallback(t *testing.T) {
	s := New()
	var tm Timer
	checked := false
	tm = s.After(time.Millisecond, func() {
		checked = true
		if tm.Pending() {
			t.Error("timer Pending inside its own callback")
		}
		if tm.Stop() {
			t.Error("timer Stop reported true inside its own callback")
		}
	})
	s.Run()
	if !checked {
		t.Fatal("callback never ran")
	}
}

// TestZeroTimerInert: the zero Timer must behave as already-fired.
func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Pending() {
		t.Error("zero Timer Pending")
	}
	if tm.Stop() {
		t.Error("zero Timer Stop reported true")
	}
	if tm.When() != -1 {
		t.Errorf("zero Timer When = %v, want -1", tm.When())
	}
}
