package telemetry

import (
	"time"

	"repro/internal/sim"
)

// tagSampler attributes sampler ticks in scheduler telemetry.
var tagSampler = sim.TagFor("telemetry")

// Sampler snapshots a registry periodically on the simulation clock.
// Because it is driven by the sim.Scheduler — never the wall clock —
// sampled runs remain bit-for-bit reproducible. It only reads: nothing
// the simulated network does depends on whether or how often it
// samples.
type Sampler struct {
	tele   *Telemetry
	sched  *sim.Scheduler
	ticker *sim.Ticker
}

func newSampler(t *Telemetry, sched *sim.Scheduler, interval time.Duration) *Sampler {
	if interval <= 0 {
		panic("telemetry: sampler interval must be positive")
	}
	s := &Sampler{tele: t, sched: sched}
	s.ticker = sched.EveryTag(tagSampler, interval, s.sample)
	return s
}

func (s *Sampler) sample() {
	snap := s.tele.Registry.Snapshot(s.sched.Now())
	s.tele.Snapshots = append(s.tele.Snapshots, snap)
	for _, fn := range s.tele.onSample {
		fn(snap)
	}
}

// Stop cancels future samples.
func (s *Sampler) Stop() { s.ticker.Stop() }
