package sim

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Errorf("final clock = %v, want 30ms", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(time.Millisecond), func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var fired []Time
	s.After(time.Millisecond, func() {
		fired = append(fired, s.Now())
		s.After(time.Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[0] != Time(time.Millisecond) || fired[1] != Time(2*time.Millisecond) {
		t.Errorf("fired = %v", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.After(time.Second, func() {})
	s.RunFor(time.Second)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(Time(time.Millisecond), func() {})
}

func TestNegativeAfterClampsToNow(t *testing.T) {
	s := New()
	ran := false
	s.After(-time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Error("negative After never ran")
	}
	if s.Now() != 0 {
		t.Errorf("clock = %v, want 0", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	ran := false
	tm := s.After(time.Millisecond, func() { ran = true })
	if !tm.Pending() {
		t.Error("timer should be pending")
	}
	if !tm.Stop() {
		t.Error("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Error("second Stop should report false")
	}
	s.Run()
	if ran {
		t.Error("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := New()
	tm := s.After(time.Millisecond, func() {})
	s.Run()
	if tm.Pending() {
		t.Error("fired timer still pending")
	}
	if tm.Stop() {
		t.Error("Stop after fire should report false")
	}
}

// TestSharedSchedulerConcurrentStop: on a shared scheduler, several
// goroutines may stop its timers at once while it is idle; none of the
// stopped timers fires and the live count stays exact.
func TestSharedSchedulerConcurrentStop(t *testing.T) {
	s := New()
	s.SetShared()
	fired := 0
	timers := make([]Timer, 64)
	for i := range timers {
		timers[i] = s.After(time.Duration(i+1)*time.Millisecond, func() { fired++ })
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(timers); i += 8 {
				timers[i].Stop()
			}
		}()
	}
	wg.Wait()
	if got := s.Pending(); got != len(timers)/2 {
		t.Errorf("pending = %d, want %d", got, len(timers)/2)
	}
	s.Run()
	if fired != len(timers)/2 {
		t.Errorf("fired = %d, want %d", fired, len(timers)/2)
	}
}

func TestTimerWhen(t *testing.T) {
	s := New()
	tm := s.After(5*time.Millisecond, func() {})
	if tm.When() != Time(5*time.Millisecond) {
		t.Errorf("When = %v, want 5ms", tm.When())
	}
	tm.Stop()
	if tm.When() != -1 {
		t.Errorf("When after stop = %v, want -1", tm.When())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var count int
	for i := 1; i <= 5; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	s.RunUntil(Time(3 * time.Millisecond))
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if s.Now() != Time(3*time.Millisecond) {
		t.Errorf("clock = %v, want exactly 3ms", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
	s.Run()
	if count != 5 {
		t.Errorf("after Run count = %d, want 5", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(Time(time.Second))
	if s.Now() != Time(time.Second) {
		t.Errorf("clock = %v, want 1s", s.Now())
	}
}

func TestStopInsideEvent(t *testing.T) {
	s := New()
	var count int
	s.After(time.Millisecond, func() { count++; s.Stop() })
	s.After(2*time.Millisecond, func() { count++ })
	s.Run()
	if count != 1 {
		t.Errorf("count = %d, want 1 (Run should stop)", count)
	}
	s.Run() // resumes
	if count != 2 {
		t.Errorf("after resume count = %d, want 2", count)
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var ticks []Time
	tk := s.Every(10*time.Millisecond, func() {
		ticks = append(ticks, s.Now())
	})
	s.RunUntil(Time(35 * time.Millisecond))
	tk.Stop()
	s.RunUntil(Time(100 * time.Millisecond))
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 ticks", ticks)
	}
	for i, at := range ticks {
		want := Time(time.Duration(i+1) * 10 * time.Millisecond)
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopInsideTick(t *testing.T) {
	s := New()
	count := 0
	var tk *Ticker
	tk = s.Every(time.Millisecond, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	s.RunUntil(Time(20 * time.Millisecond))
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestEveryPanicsOnNonPositive(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	s.Every(0, func() {})
}

func TestProcessedCount(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.After(time.Duration(i)*time.Microsecond, func() {})
	}
	s.Run()
	if s.Processed != 7 {
		t.Errorf("Processed = %d, want 7", s.Processed)
	}
}

func TestDeterminism(t *testing.T) {
	// Two schedulers fed the same randomized workload execute events in
	// identical order.
	run := func(seed int64) []int {
		s := New()
		r := rand.New(rand.NewSource(seed))
		var got []int
		for i := 0; i < 200; i++ {
			i := i
			s.At(Time(r.Intn(50))*Time(time.Millisecond), func() { got = append(got, i) })
		}
		s.Run()
		return got
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds = %v", tm.Seconds())
	}
	if tm.Add(500*time.Millisecond) != Time(2*time.Second) {
		t.Errorf("Add wrong")
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Errorf("Sub wrong")
	}
	if tm.String() != "1.5s" {
		t.Errorf("String = %q", tm.String())
	}
}

func TestPropertyEventsFireInOrder(t *testing.T) {
	// Property: for any multiset of schedule times, firing order is the
	// sorted order of those times.
	f := func(offsets []uint16) bool {
		s := New()
		var fired []Time
		for _, o := range offsets {
			s.At(Time(o)*Time(time.Microsecond), func() {
				fired = append(fired, s.Now())
			})
		}
		s.Run()
		want := make([]int, len(offsets))
		for i, o := range offsets {
			want[i] = int(o)
		}
		sort.Ints(want)
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != Time(want[i])*Time(time.Microsecond) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("NewRand not deterministic for equal seeds")
		}
	}
}
