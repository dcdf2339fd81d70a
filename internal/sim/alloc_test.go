package sim

import (
	"testing"
	"time"
)

// nopCall is a package-level CallFunc, the shape the hot packet paths
// schedule through.
func nopCall(a, b any) {}

// TestSchedulerSteadyStateAllocs pins the kernel's zero-allocation
// steady state. Each case first runs its batch once (AllocsPerRun's
// warm-up) so the heap, slot table and free-list reach their working
// size; the measured batch must then allocate nothing at all. One run of
// a many-op batch, rather than many runs of one op, keeps a rare
// allocation from rounding away in AllocsPerRun's integer average.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	const ops = 10000
	fn := func() {}
	x := new(int)

	cases := []struct {
		name  string
		setup func(s *Scheduler) (op func())
	}{
		{"After+fire", func(s *Scheduler) func() {
			return func() {
				s.After(time.Microsecond, fn)
				s.Run()
			}
		}},
		{"AfterCall+fire", func(s *Scheduler) func() {
			return func() {
				s.AfterCall(0, time.Microsecond, nopCall, x, s)
				s.Run()
			}
		}},
		{"Stop+re-arm/4096 pending", func(s *Scheduler) func() {
			for i := 0; i < 4096; i++ {
				s.After(time.Duration(i+1)*time.Second, fn)
			}
			tm := s.After(200*time.Millisecond, fn)
			return func() {
				tm.Stop()
				tm = s.After(200*time.Millisecond, fn)
			}
		}},
		{"PushLane+fire", func(s *Scheduler) func() {
			l := s.NewLine(0, 1, nopCall, x)
			var seq uint64
			return func() {
				seq++
				l.PushLane(seq, s.Now().Add(time.Microsecond), x)
				s.Run()
			}
		}},
		{"Push+fire/2300 in flight", func(s *Scheduler) func() {
			// A wire with ~2,300 packets propagating: each op sends one
			// and delivers the oldest, so the ring wraps but never grows
			// after the warm-up batch.
			l := s.NewLine(0, 0, nopCall, x)
			const inFlight = 2300
			for i := 1; i <= inFlight; i++ {
				l.Push(Time(i)*Time(time.Microsecond), x)
			}
			return func() {
				l.Push(s.Now().Add(inFlight*time.Microsecond), x)
				s.step()
			}
		}},
		{"Ticker tick", func(s *Scheduler) func() {
			s.Every(time.Millisecond, fn)
			return func() { s.RunFor(time.Millisecond) }
		}},
	}
	for _, tc := range cases {
		op := tc.setup(New())
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < ops; i++ {
				op()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations in %d warmed ops, want 0", tc.name, allocs, ops)
		}
	}
}

// TestFreedSlotsDropReferences checks that every way a slot is recycled
// — a fire, a skim of a cancelled entry at the top of the heap, and a
// compaction — leaves it holding no callback or operand, so a recycled
// slot never keeps a finished event's closure or packet reachable.
func TestFreedSlotsDropReferences(t *testing.T) {
	s := New()
	x := new(int)
	fn := func() { *x++ }
	checkFree := func(after string, wantFree int) {
		t.Helper()
		if len(s.freeSlots) != wantFree {
			t.Fatalf("after %s: %d free slots, want %d", after, len(s.freeSlots), wantFree)
		}
		for _, idx := range s.freeSlots {
			sl := &s.slots[idx]
			if sl.fn != nil || sl.call != nil || sl.a != nil || sl.b != nil {
				t.Errorf("after %s: free slot %d still holds a callback or operand", after, idx)
			}
		}
	}

	s.After(time.Microsecond, fn)
	s.AfterCall(0, time.Microsecond, nopCall, x, x)
	s.Run()
	checkFree("fire", 2)

	victim := s.AfterCall(0, time.Microsecond, nopCall, x, x)
	s.After(2*time.Microsecond, fn)
	victim.Stop()
	if next, ok := s.NextEventTime(); !ok || next != s.Now().Add(2*time.Microsecond) {
		t.Fatalf("NextEventTime = %v, %v; want the survivor at now+2µs", next, ok)
	}
	checkFree("skim", 1)
	s.Run()

	const queued = 2048
	timers := make([]Timer, queued)
	for i := range timers {
		if i%2 == 0 {
			timers[i] = s.After(time.Duration(i+1)*time.Microsecond, fn)
		} else {
			timers[i] = s.AfterCall(0, time.Duration(i+1)*time.Microsecond, nopCall, x, x)
		}
	}
	for _, tm := range timers[:queued/2] {
		tm.Stop()
	}
	if s.cancelled != 0 || s.Pending() != queued/2 {
		t.Fatalf("compaction did not run: cancelled = %d, pending = %d", s.cancelled, s.Pending())
	}
	checkFree("compaction", queued/2)
}
