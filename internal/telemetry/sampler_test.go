package telemetry

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestSamplerZeroIntervalPanics pins the zero-interval contract: a
// sampler that would never tick is a misconfiguration, rejected loudly
// at StartSampler rather than producing a silent no-op (consumers like
// AttachTelemetry gate on SampleInterval > 0 before calling).
func TestSamplerZeroIntervalPanics(t *testing.T) {
	for _, interval := range []time.Duration{0, -time.Second} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StartSampler(%v) did not panic", interval)
				}
			}()
			New().StartSampler(sim.New(), interval)
		}()
	}
}

// TestSamplerStoppedMidRun: stopping the sampler partway through a run
// freezes the snapshot series at its current length, and a restart via
// a second StartSampler resumes on the same Telemetry with a fresh
// tick phase.
func TestSamplerStoppedMidRun(t *testing.T) {
	sched := sim.New()
	tele := New()
	sam := tele.StartSampler(sched, time.Second)
	// Stop from inside the run, between ticks.
	sched.After(2500*time.Millisecond, func() { sam.Stop() })
	sched.RunFor(10 * time.Second)
	if len(tele.Snapshots) != 2 {
		t.Fatalf("snapshots after mid-run stop = %d, want 2", len(tele.Snapshots))
	}
	if tele.Snapshots[1].At != sim.Time(2*time.Second) {
		t.Errorf("last snapshot at %v, want 2s", tele.Snapshots[1].At)
	}
	// Stop is idempotent.
	sam.Stop()

	// A new sampler resumes accumulation on the same Telemetry.
	tele.StartSampler(sched, time.Second)
	sched.RunFor(2 * time.Second)
	if len(tele.Snapshots) != 4 {
		t.Errorf("snapshots after restart = %d, want 4", len(tele.Snapshots))
	}
}

// TestSamplerAttachedAfterTimeZero: a sampler started mid-simulation
// ticks relative to its attach time, not to t=0, and only sees state
// from then on — the "attach telemetry to an already-running service"
// case the -serve mode exercises.
func TestSamplerAttachedAfterTimeZero(t *testing.T) {
	sched := sim.New()
	tele := New()
	g := tele.Registry.Gauge("v", nil)
	g.Set(1)
	sched.After(10*time.Second, func() {}) // keep the run alive past attach
	sched.RunFor(3500 * time.Millisecond)

	var ticks []sim.Time
	tele.OnSample(func(s *Snapshot) { ticks = append(ticks, s.At) })
	tele.StartSampler(sched, time.Second)
	sched.RunFor(2600 * time.Millisecond) // now at 6.1s

	want := []time.Duration{4500 * time.Millisecond, 5500 * time.Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %d ticks", ticks, len(want))
	}
	for i, w := range want {
		if ticks[i] != sim.Time(w) {
			t.Errorf("tick %d at %v, want %v (attach-relative phase)", i, ticks[i], w)
		}
	}
	if s, _ := tele.Snapshots[0].Get("v", nil); s.Value != 1 {
		t.Errorf("late-attached sampler saw v=%v, want the live value 1", s.Value)
	}
}
