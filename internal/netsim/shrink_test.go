package netsim

import (
	"testing"
	"time"

	"repro/internal/units"
)

// Regression test for the invariant auditor's handling of a buffer shrunk
// below its occupancy mid-run. SetQueueCap does not destroy queued
// packets — they were admitted legally and drain normally — so the audit
// must grandfather the pre-shrink occupancy instead of double-counting
// those bytes as capacity violations. The grandfathered floor must also
// expire once the queue fits the new capacity again, so a later real
// violation is still caught.
func TestAuditQueueCapShrinkMidRun(t *testing.T) {
	n := New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	// Slow link: 1500 B takes 12 ms to serialize, so a burst parks a
	// deep queue on a's egress port for a long, controllable window.
	link := n.Connect(a, b, LinkConfig{
		Rate:   units.Mbps,
		Delay:  time.Millisecond,
		QueueA: 64 * units.KB,
	})
	n.ComputeRoutes()
	b.Bind(ProtoTCP, 9000, HandlerFunc(func(pkt *Packet) {}))

	egress := link.A
	send := func() {
		pkt := a.NewPacket()
		pkt.Flow = FlowKey{Src: "a", Dst: "b", Proto: ProtoTCP, DstPort: 9000}
		pkt.Size = 1500
		a.Send(pkt)
	}
	for i := 0; i < 20; i++ {
		send()
	}

	const shrunk = 4 * units.KB
	var midOccupancy units.ByteSize
	var midErrs []error
	n.Sched.After(time.Millisecond, func() {
		midOccupancy = egress.QueueBytes()
		egress.SetQueueCap(shrunk)
		midErrs = n.AuditInvariants()
	})

	// After the queue drains below the shrunk capacity, the floor must
	// be gone: a fresh burst sees the new capacity and overflows.
	var lateDropsBefore, lateDropsAfter uint64
	n.Sched.After(500*time.Millisecond, func() {
		if got := egress.QueueBytes(); got > shrunk {
			t.Errorf("queue still %v after drain window, want <= %v", got, shrunk)
		}
		lateDropsBefore = egress.Counters.QueueDrops
		for i := 0; i < 20; i++ {
			send()
		}
		lateDropsAfter = egress.Counters.QueueDrops
	})

	n.RunFor(2 * time.Second)

	if midOccupancy <= shrunk {
		t.Fatalf("mid-run occupancy %v does not exceed the shrunk cap %v; the test exercises nothing", midOccupancy, shrunk)
	}
	for _, err := range midErrs {
		t.Errorf("audit at shrink time: %v", err)
	}
	if lateDropsAfter == lateDropsBefore {
		t.Errorf("post-drain burst dropped nothing: the shrunk capacity %v is not being enforced", shrunk)
	}
	for _, err := range n.AuditInvariants() {
		t.Errorf("final audit: %v", err)
	}
	if c := n.Conservation(); !c.Balanced() {
		t.Errorf("ledger does not balance: %v", c)
	}
}
