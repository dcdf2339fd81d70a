package netsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/units"
)

// TestStopEndsOnlyItsRun: a Stop issued from inside an event ends the
// run it was issued in, not every later one. The next RunFor lands every
// clock on its end with a clean audit, and the audit goes back to
// comparing shard clocks with the control clock.
func TestStopEndsOnlyItsRun(t *testing.T) {
	n, a, _, got := twoHosts(t, LinkConfig{Rate: units.Gbps, Delay: 25 * time.Millisecond})
	if _, err := n.InstallShards(2); err != nil {
		t.Fatal(err)
	}
	if shards := len(n.ShardSchedulers()); shards != 2 {
		t.Fatalf("shards = %d, want 2 (the link must be cut)", shards)
	}
	a.Send(pkt("a", "b", 1500))
	stopAt := sim.Time(5 * time.Millisecond)
	n.Sched.At(stopAt, n.Sched.Stop)
	n.RunFor(time.Second)
	if n.Now() != stopAt {
		t.Fatalf("stopped run ended at %v, want %v", n.Now(), stopAt)
	}

	// No control event is due in the resumed run: only a run start can
	// forget the earlier Stop.
	n.RunFor(100 * time.Millisecond)
	end := stopAt.Add(100 * time.Millisecond)
	for i, s := range n.Schedulers() {
		if s.Now() != end {
			t.Errorf("scheduler %d clock %v, want %v", i, s.Now(), end)
		}
	}
	if len(*got) != 1 {
		t.Errorf("delivered %d packets, want 1", len(*got))
	}
	for _, err := range n.AuditInvariants() {
		t.Errorf("audit after the resumed run: %v", err)
	}

	n.ShardSchedulers()[0].AdvanceTo(end.Add(time.Millisecond))
	found := false
	for _, err := range n.AuditInvariants() {
		found = found || strings.Contains(err.Error(), "disagrees with control clock")
	}
	if !found {
		t.Error("audit missed a shard clock past the control clock")
	}
}
