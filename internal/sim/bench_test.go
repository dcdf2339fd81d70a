package sim

import (
	"testing"
	"time"
)

// The scheduler benchmarks isolate the hot shapes the network
// simulator drives the kernel with (run with -benchmem; CI smoke-runs
// them and EXPERIMENTS.md records the trajectory):
//
//   - ScheduleFire: steady-state schedule->fire flow, the packet path.
//   - CancelChurn: schedule->cancel->reschedule against a deep queue,
//     the TCP retransmit-timer pattern (the dominant Timer.Stop source).
//   - Drain: bulk RunUntil drain of a pre-filled queue.
//   - Ticker: periodic callbacks, the telemetry-sampler pattern.
//   - DeepQueue: schedule->fire plus an RTO reset at the queue depth of
//     a lossy long-fat-path transfer, the event kernel's bottom rung.
//   - Wire: the same transfer once its packets in flight ride delay
//     lines: Push->fire plus an RTO reset, with the heap holding only
//     line heads and timers.

// BenchmarkSchedulerScheduleFire measures one schedule plus one
// (amortized) fire per op, with the queue kept around 1k events.
func BenchmarkSchedulerScheduleFire(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%997)*time.Microsecond, fn)
		if s.Pending() >= 1024 {
			s.Run()
		}
	}
	s.Run()
}

// BenchmarkSchedulerCancelChurn measures one Timer.Stop plus one
// reschedule per op against a queue holding 4096 long-lived events —
// the shape of a TCP sender resetting its RTO on every ACK.
func BenchmarkSchedulerCancelChurn(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		s.After(time.Duration(i+1)*time.Second, fn)
	}
	tm := s.After(200*time.Millisecond, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Stop()
		tm = s.After(time.Duration(200+i%16)*time.Millisecond, fn)
	}
	if !tm.Pending() {
		b.Fatal("live timer should be pending")
	}
}

// BenchmarkSchedulerDrain measures building and fully draining a
// 1024-event queue per op (RunUntil through all timestamps).
func BenchmarkSchedulerDrain(b *testing.B) {
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1024; j++ {
			s.After(time.Duration(j%97)*time.Microsecond, fn)
		}
		s.RunUntil(Time(time.Millisecond))
	}
}

// BenchmarkSchedulerTicker measures one periodic tick per op.
func BenchmarkSchedulerTicker(b *testing.B) {
	s := New()
	ticks := 0
	tk := s.Every(time.Millisecond, func() { ticks++ })
	b.ReportAllocs()
	b.ResetTimer()
	s.RunFor(time.Duration(b.N) * time.Millisecond)
	b.StopTimer()
	tk.Stop()
	if ticks != b.N {
		b.Fatalf("ticks = %d, want %d", ticks, b.N)
	}
}

// BenchmarkSchedulerDeepQueue measures one schedule, one fire and one
// RTO-style Timer.Stop plus re-arm per op with ~4096 events pending —
// the depth of a multi-stream transfer on a long, fat path, whose every
// in-flight segment is a queued event. ScheduleFire fills to 1024 and
// drains to empty, so it averages only ~512 deep.
func BenchmarkSchedulerDeepQueue(b *testing.B) {
	s := New()
	fn := func() {}
	for i := 0; i < 4096; i++ {
		s.After(time.Duration(i%997+1)*time.Microsecond, fn)
	}
	rto := s.After(time.Second, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%997+1)*time.Microsecond, fn)
		s.step()
		rto.Stop()
		rto = s.After(time.Second, fn)
	}
	b.StopTimer()
	if got := s.Pending(); got != 4097 {
		b.Fatalf("Pending = %d, want 4097", got)
	}
}

// BenchmarkSchedulerWire measures one Push onto a delay line, one fire
// and one RTO-style Timer.Stop plus re-arm per op, with ~2,300 packets
// in flight across 4 lines and 8 timers re-armed in turn — DeepQueue's
// transfer with its wire packets on lines, as netsim runs it. The heap
// holds the 4 line heads, the 8 live timers and their cancelled
// predecessors until compaction.
func BenchmarkSchedulerWire(b *testing.B) {
	const lines, inFlight, timers = 4, 2300, 8
	s := New()
	fn := func() {}
	var ls [lines]*Line
	for i := range ls {
		ls[i] = s.NewLine(0, 0, nopCall, nil)
	}
	// One packet a microsecond, round-robin over the lines, each
	// arriving inFlight µs after it was sent.
	for i := 1; i <= inFlight; i++ {
		ls[i%lines].Push(Time(i)*Time(time.Microsecond), nil)
	}
	var rto [timers]Timer
	for i := range rto {
		rto[i] = s.After(time.Second, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls[i%lines].Push(s.Now().Add(inFlight*time.Microsecond), nil)
		s.step()
		rto[i%timers].Stop()
		rto[i%timers] = s.After(time.Second, fn)
	}
	b.StopTimer()
	if got := s.Pending(); got != inFlight+timers {
		b.Fatalf("Pending = %d, want %d", got, inFlight+timers)
	}
}
