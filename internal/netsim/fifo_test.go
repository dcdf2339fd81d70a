package netsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/units"
)

// checkFIFO compares the ring against its slice model: same length,
// same byte total, and every slot outside the queued window empty.
func checkFIFO(t *testing.T, q *PacketFIFO, model []*Packet) {
	t.Helper()
	if q.Len() != len(model) {
		t.Fatalf("Len = %d, model holds %d", q.Len(), len(model))
	}
	var want units.ByteSize
	for _, p := range model {
		want += p.Size
	}
	if got := q.Bytes(); got != want {
		t.Fatalf("Bytes = %d, model holds %d", got, want)
	}
	for i := range q.buf {
		queued := (i-q.head+len(q.buf))&(len(q.buf)-1) < q.n
		if !queued && q.buf[i] != nil {
			t.Fatalf("slot %d holds a packet outside the queue (head %d, len %d)", i, q.head, q.n)
		}
	}
}

// TestPacketFIFOMatchesSliceModel drives the ring with random push/pop
// sequences against a plain slice. It pops packets in push order,
// grows correctly while wrapped, and clears every slot a pop frees, so
// a drained ring holds no packet.
func TestPacketFIFOMatchesSliceModel(t *testing.T) {
	// Growth while wrapped, by construction: fill the first ring, pop
	// some so the head moves, then push past the capacity.
	var q PacketFIFO
	var model []*Packet
	push := func(size int) {
		p := &Packet{Size: units.ByteSize(size)}
		q.Push(p)
		model = append(model, p)
	}
	pop := func() {
		t.Helper()
		got := q.Pop()
		if len(model) == 0 {
			if got != nil {
				t.Fatalf("Pop on an empty ring returned %v", got)
			}
			return
		}
		if got != model[0] {
			t.Fatalf("Pop returned size %d, model's head has size %d", got.Size, model[0].Size)
		}
		model = model[1:]
	}
	for i := 0; i < 8; i++ {
		push(i + 1)
	}
	for i := 0; i < 5; i++ {
		pop()
	}
	for i := 0; i < 9; i++ {
		push(100 + i) // wraps, then grows 8 -> 16 with head at slot 5
	}
	checkFIFO(t, &q, model)
	if len(q.buf) != 16 {
		t.Fatalf("ring holds %d slots after growing once, want 16", len(q.buf))
	}
	for len(model) > 0 {
		pop()
	}
	pop()
	checkFIFO(t, &q, model)

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		q, model = PacketFIFO{}, nil
		for op := 0; op < 500; op++ {
			// Bias toward pushes early and pops late, so rings both grow
			// while wrapped and drain completely.
			if rng.Intn(500) >= op {
				push(1 + rng.Intn(9000))
			} else {
				pop()
			}
			checkFIFO(t, &q, model)
		}
		for len(model) > 0 {
			pop()
		}
		checkFIFO(t, &q, model)
	}
}

// TestPortStandingQueueAllocationFree sends batches that build a
// standing queue on a host port and on a device's slower egress port,
// and drains them. Once the rings have reached their peak depth, a
// batch allocates nothing: packets come from the pool and go back to
// it, and the queues reuse their rings.
func TestPortStandingQueueAllocationFree(t *testing.T) {
	n := New(1)
	a := n.NewHost("a")
	b := n.NewHost("b")
	sw := n.NewDevice("sw", DeviceConfig{})
	n.Connect(a, sw, LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(sw, b, LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond})
	n.ComputeRoutes()
	delivered := 0
	b.Bind(ProtoUDP, 9, HandlerFunc(func(p *Packet) {
		delivered++
		b.ReleasePacket(p)
	}))

	const batch = 256
	send := func() {
		for i := 0; i < batch; i++ {
			p := a.NewPacket()
			p.Flow = FlowKey{Src: "a", Dst: "b", SrcPort: 5000, DstPort: 9, Proto: ProtoUDP}
			p.Size = 1500
			a.Send(p)
		}
		n.Run()
	}
	if allocs := testing.AllocsPerRun(4, send); allocs != 0 {
		t.Errorf("a warmed batch of %d packets allocates %v times, want 0", batch, allocs)
	}
	if want := 5 * batch; delivered != want {
		t.Fatalf("delivered %d packets, want %d", delivered, want)
	}
	if depth := len(sw.Ports()[1].queue.buf); depth < batch/2 {
		t.Fatalf("device egress ring has %d slots: the batch never built a standing queue", depth)
	}
	for _, err := range n.AuditInvariants() {
		t.Errorf("audit: %v", err)
	}
}
