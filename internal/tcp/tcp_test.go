package tcp

import (
	"math"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// path builds client -- r1 -- r2 -- server with the WAN segment between
// the routers carrying the delay (RTT = 2*delay) and optional loss. The
// network's invariants are audited when the test ends.
func path(t *testing.T, seed int64, rate units.BitRate, oneWay time.Duration, loss netsim.LossModel, mtu int) (*netsim.Network, *netsim.Host, *netsim.Host) {
	n := netsim.New(seed)
	t.Cleanup(func() {
		for _, err := range n.AuditInvariants() {
			t.Errorf("audit: %v", err)
		}
	})
	c := n.NewHost("client")
	s := n.NewHost("server")
	r1 := n.NewDevice("r1", netsim.DeviceConfig{EgressBuffer: 32 * units.MB})
	r2 := n.NewDevice("r2", netsim.DeviceConfig{EgressBuffer: 32 * units.MB})
	n.Connect(c, r1, netsim.LinkConfig{Rate: rate, Delay: 10 * time.Microsecond, MTU: mtu})
	n.Connect(r1, r2, netsim.LinkConfig{Rate: rate, Delay: oneWay, Loss: loss, MTU: mtu})
	n.Connect(r2, s, netsim.LinkConfig{Rate: rate, Delay: 10 * time.Microsecond, MTU: mtu})
	n.ComputeRoutes()
	return n, c, s
}

func TestBasicTransferCompletes(t *testing.T) {
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 1500)
	srv := NewServer(s, 5001, Tuned())
	var done *Stats
	Dial(c, srv, 100*units.KB, Tuned(), func(st *Stats) { done = st })
	n.Run()
	if done == nil {
		t.Fatal("transfer never completed")
	}
	if !done.Done || done.BytesAcked != 100*units.KB {
		t.Errorf("acked %v, want 100KB", done.BytesAcked)
	}
	if srv.Received() != 100*units.KB {
		t.Errorf("server received %v, want 100KB", srv.Received())
	}
	if done.Retransmits != 0 || done.LossEvents != 0 || done.RTOs != 0 {
		t.Errorf("clean path had retx=%d loss=%d rto=%d", done.Retransmits, done.LossEvents, done.RTOs)
	}
	if !done.WScaleOK {
		t.Error("window scaling should have negotiated")
	}
}

func TestMSSFromPathMTU(t *testing.T) {
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 9000)
	srv := NewServer(s, 5001, Tuned())
	conn := Dial(c, srv, 10*units.KB, Tuned(), nil)
	n.Run()
	if conn.MSS() != 9000-int(HeaderSize) {
		t.Errorf("MSS = %d, want %d", conn.MSS(), 9000-int(HeaderSize))
	}
}

func TestLossFreeThroughputNearLineRate(t *testing.T) {
	// §2.1: loss-free paths let TCP run at path rate even at high RTT.
	n, c, s := path(t, 1, units.Gbps, 5*time.Millisecond, nil, 1500) // RTT 10ms
	srv := NewServer(s, 5001, Tuned())
	var done *Stats
	Dial(c, srv, 100*units.MB, Tuned(), func(st *Stats) { done = st })
	n.RunFor(3 * time.Second)
	if done == nil {
		t.Fatal("100MB at ~1Gbps should finish within 3s")
	}
	gbps := float64(done.Throughput() / units.Gbps)
	if gbps < 0.75 {
		t.Errorf("loss-free throughput = %.3f Gbps, want > 0.75", gbps)
	}
}

func TestLegacyWindowCapsThroughput(t *testing.T) {
	// §6.2: 64 KiB window at 10 ms RTT caps near 52 Mb/s regardless of
	// the 1 Gb/s path.
	n, c, s := path(t, 1, units.Gbps, 5*time.Millisecond, nil, 1500)
	srv := NewServer(s, 5001, Legacy())
	var done *Stats
	Dial(c, srv, 20*units.MB, Legacy(), func(st *Stats) { done = st })
	n.RunFor(10 * time.Second)
	if done == nil {
		t.Fatal("transfer did not finish")
	}
	mbps := float64(done.Throughput() / units.Mbps)
	want := float64(analytic.WindowLimitedRate(64*units.KiB, 10*time.Millisecond) / units.Mbps)
	if mbps > want*1.1 {
		t.Errorf("legacy throughput = %.1f Mbps, should be window-capped near %.1f", mbps, want)
	}
	if mbps < want*0.6 {
		t.Errorf("legacy throughput = %.1f Mbps, too far below the window cap %.1f", mbps, want)
	}
}

func TestWindowScaleStrippedByMiddlebox(t *testing.T) {
	// A middlebox clearing the window-scale option must disable scaling
	// even between two tuned endpoints — the Penn State failure.
	n, c, s := path(t, 1, units.Gbps, 5*time.Millisecond, nil, 1500)
	r1 := n.Node("r1").(*netsim.Device)
	r1.AddFilter(stripWScale{})
	srv := NewServer(s, 5001, Tuned())
	var done *Stats
	Dial(c, srv, 20*units.MB, Tuned(), func(st *Stats) { done = st })
	n.RunFor(10 * time.Second)
	if done == nil {
		t.Fatal("transfer did not finish")
	}
	if done.WScaleOK {
		t.Error("scaling should have been disabled by the middlebox")
	}
	mbps := float64(done.Throughput() / units.Mbps)
	if mbps > 60 {
		t.Errorf("stripped-wscale throughput = %.1f Mbps, want window-capped ~52", mbps)
	}
}

type stripWScale struct{}

func (stripWScale) FilterName() string { return "strip-wscale" }
func (stripWScale) Check(p *netsim.Packet, _ *netsim.Port) bool {
	if p.Flags.Has(netsim.FlagSYN) {
		p.WScale = netsim.NoWScale
	}
	return true
}

func TestSingleLossFastRetransmit(t *testing.T) {
	// Exactly one data packet lost mid-flow: NewReno must recover via
	// fast retransmit without any RTO.
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 1500)
	srv := NewServer(s, 5001, Tuned())

	dropped := false
	r1 := n.Node("r1").(*netsim.Device)
	r1.AddFilter(dropOnce{when: func(p *netsim.Packet) bool {
		if !dropped && p.IsTCPData(HeaderSize) && p.Seq > 500_000 {
			dropped = true
			return true
		}
		return false
	}})

	var done *Stats
	Dial(c, srv, 5*units.MB, Tuned(), func(st *Stats) { done = st })
	n.RunFor(30 * time.Second)
	if done == nil {
		t.Fatal("transfer did not finish")
	}
	if !dropped {
		t.Fatal("test filter never dropped")
	}
	if done.LossEvents != 1 {
		t.Errorf("loss events = %d, want 1", done.LossEvents)
	}
	if done.RTOs != 0 {
		t.Errorf("RTOs = %d, want 0 (fast retransmit should cover a single loss)", done.RTOs)
	}
	if done.Retransmits < 1 {
		t.Error("expected at least one retransmission")
	}
}

type dropOnce struct {
	when func(*netsim.Packet) bool
}

func (dropOnce) FilterName() string { return "drop-once" }
func (d dropOnce) Check(p *netsim.Packet, _ *netsim.Port) bool {
	return !d.when(p)
}

func TestBurstLossRecoversViaNewRenoOrRTO(t *testing.T) {
	// A burst of consecutive losses: NewReno partial ACKs (or in the
	// worst case an RTO) must still complete the transfer.
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 1500)
	srv := NewServer(s, 5001, Tuned())
	remaining := 5
	r1 := n.Node("r1").(*netsim.Device)
	r1.AddFilter(dropOnce{when: func(p *netsim.Packet) bool {
		if remaining > 0 && p.IsTCPData(HeaderSize) && p.Seq > 1_000_000 {
			remaining--
			return true
		}
		return false
	}})
	var done *Stats
	Dial(c, srv, 5*units.MB, Tuned(), func(st *Stats) { done = st })
	n.RunFor(60 * time.Second)
	if done == nil {
		t.Fatal("transfer did not finish after burst loss")
	}
	if done.Retransmits < 5 {
		t.Errorf("retransmits = %d, want >= 5", done.Retransmits)
	}
	if srv.Received() < 5*units.MB {
		t.Errorf("server received %v, want 5MB", srv.Received())
	}
}

func TestRTOOnTotalBlackout(t *testing.T) {
	// Drop everything for a while mid-transfer: only an RTO can recover.
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 1500)
	srv := NewServer(s, 5001, Tuned())
	blackout := false
	r1 := n.Node("r1").(*netsim.Device)
	r1.AddFilter(dropOnce{when: func(p *netsim.Packet) bool { return blackout }})
	var done *Stats
	Dial(c, srv, 2*units.MB, Tuned(), func(st *Stats) { done = st })

	n.Sched.After(5*time.Millisecond, func() { blackout = true })
	n.Sched.After(600*time.Millisecond, func() { blackout = false })
	n.RunFor(30 * time.Second)
	if done == nil {
		t.Fatal("transfer did not finish after blackout")
	}
	if done.RTOs == 0 {
		t.Error("blackout should have caused at least one RTO")
	}
}

func TestRandomLossTracksMathis(t *testing.T) {
	// With 1e-4 random loss at 20 ms RTT, long-run throughput must land
	// within a factor of ~2 of the Mathis bound — and far below the path
	// rate. This validates the congestion machinery quantitatively.
	rtt := 20 * time.Millisecond
	p := 1e-4
	n, c, s := path(t, 7, units.Gbps, rtt/2, netsim.RandomLoss{P: p}, 1500)
	srv := NewServer(s, 5001, Tuned())
	conn := Dial(c, srv, -1, Tuned(), nil) // unbounded
	n.RunFor(60 * time.Second)
	st := conn.Stats()
	got := float64(st.Throughput())
	mathis := float64(analytic.MathisThroughput(units.ByteSize(conn.MSS()), rtt, p))
	if got > float64(units.Gbps)*0.9 {
		t.Errorf("lossy throughput %.1f Mbps suspiciously near line rate", got/1e6)
	}
	ratio := got / mathis
	if ratio < 0.3 || ratio > 2.5 {
		t.Errorf("throughput/Mathis = %.2f (got %.1f Mbps, Mathis %.1f Mbps), want within [0.3, 2.5]",
			ratio, got/1e6, mathis/1e6)
	}
	if st.LossEvents == 0 {
		t.Error("no loss events recorded under random loss")
	}
}

func TestLossHurtsMoreAtHigherRTT(t *testing.T) {
	// The central Figure 1 relationship: same loss rate, higher RTT ⇒
	// much lower throughput.
	run := func(rtt time.Duration) units.BitRate {
		n, c, s := path(t, 3, 10*units.Gbps, rtt/2, &netsim.PeriodicLoss{N: 22000}, 9000)
		srv := NewServer(s, 5001, Tuned())
		conn := Dial(c, srv, -1, Tuned(), nil)
		n.RunFor(20 * time.Second)
		return conn.Stats().Throughput()
	}
	short := run(2 * time.Millisecond)
	long := run(80 * time.Millisecond)
	if float64(short) < 3*float64(long) {
		t.Errorf("short RTT %.1f Mbps vs long RTT %.1f Mbps: expected >3x gap",
			float64(short)/1e6, float64(long)/1e6)
	}
}

func TestHTCPBeatsRenoOnLossyHighBDP(t *testing.T) {
	// Figure 1's two measured curves: H-TCP recovers faster than Reno on
	// a high-BDP path with occasional loss.
	run := func(cc CongestionControl) units.BitRate {
		n, c, s := path(t, 11, 10*units.Gbps, 25*time.Millisecond, netsim.RandomLoss{P: 5e-5}, 9000)
		srv := NewServer(s, 5001, Tuned())
		conn := Dial(c, srv, -1, TunedWith(cc), nil)
		n.RunFor(15 * time.Second)
		return conn.Stats().Throughput()
	}
	reno := run(NewReno{})
	htcp := run(&HTCP{})
	if float64(htcp) < float64(reno)*1.2 {
		t.Errorf("H-TCP %.2f Gbps vs Reno %.2f Gbps: expected H-TCP at least 20%% faster",
			float64(htcp)/1e9, float64(reno)/1e9)
	}
}

func TestCubicCompletesAndBacksOff(t *testing.T) {
	n, c, s := path(t, 5, units.Gbps, 5*time.Millisecond, netsim.RandomLoss{P: 1e-5}, 1500)
	srv := NewServer(s, 5001, Tuned())
	var done *Stats
	Dial(c, srv, 30*units.MB, TunedWith(&Cubic{}), func(st *Stats) { done = st })
	n.RunFor(60 * time.Second)
	if done == nil {
		t.Fatal("cubic transfer did not finish")
	}
	if done.CCName != "cubic" {
		t.Errorf("cc name = %q", done.CCName)
	}
}

func TestFairnessTwoFlows(t *testing.T) {
	// Two concurrent flows over the same bottleneck end up within 3x of
	// each other and together near line rate. The bottleneck buffer is
	// BDP-scaled: grossly oversized drop-tail buffers genuinely destroy
	// fairness (bufferbloat), which is not what this test is about.
	n := netsim.New(9)
	c := n.NewHost("client")
	s := n.NewHost("server")
	r1 := n.NewDevice("r1", netsim.DeviceConfig{EgressBuffer: units.MB})
	r2 := n.NewDevice("r2", netsim.DeviceConfig{EgressBuffer: units.MB})
	n.Connect(c, r1, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond})
	n.Connect(r1, r2, netsim.LinkConfig{Rate: units.Gbps, Delay: 2 * time.Millisecond})
	n.Connect(r2, s, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond})
	srv := NewServer(s, 5001, Tuned())
	c2 := n.NewHost("client2")
	n.Connect(c2, r1, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond})
	n.ComputeRoutes()

	conn1 := Dial(c, srv, -1, Tuned(), nil)
	conn2 := Dial(c2, srv, -1, Tuned(), nil)
	n.RunFor(10 * time.Second)
	t1 := float64(conn1.Stats().Throughput())
	t2 := float64(conn2.Stats().Throughput())
	sum := (t1 + t2) / 1e9
	if sum < 0.7 {
		t.Errorf("aggregate = %.2f Gbps, want near 1", sum)
	}
	ratio := t1 / t2
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > 3 {
		t.Errorf("flow ratio = %.2f (%.0f vs %.0f Mbps), want < 3", ratio, t1/1e6, t2/1e6)
	}
}

func TestTinyReceiverBufferNoDeadlock(t *testing.T) {
	// A receive buffer smaller than one MSS must not deadlock.
	opts := Options{WindowScale: false, RcvBuf: 1 * units.KB}
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 1500)
	srv := NewServer(s, 5001, opts)
	var done *Stats
	Dial(c, srv, 50*units.KB, opts, func(st *Stats) { done = st })
	n.RunFor(60 * time.Second)
	if done == nil {
		t.Fatal("tiny-window transfer deadlocked")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (units.ByteSize, int, time.Duration) {
		n, c, s := path(t, 21, units.Gbps, 5*time.Millisecond, netsim.RandomLoss{P: 1e-4}, 1500)
		srv := NewServer(s, 5001, Tuned())
		conn := Dial(c, srv, 10*units.MB, Tuned(), nil)
		n.RunFor(20 * time.Second)
		st := conn.Stats()
		return st.BytesAcked, st.Retransmits, st.Duration()
	}
	b1, r1, d1 := run()
	b2, r2, d2 := run()
	if b1 != b2 || r1 != r2 || d1 != d2 {
		t.Errorf("nondeterministic: (%v,%d,%v) vs (%v,%d,%v)", b1, r1, d1, b2, r2, d2)
	}
}

func TestConcurrentFlowsOnOneServer(t *testing.T) {
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 1500)
	srv := NewServer(s, 5001, Tuned())
	doneCount := 0
	for i := 0; i < 8; i++ {
		Dial(c, srv, units.MB, Tuned(), func(*Stats) { doneCount++ })
	}
	n.RunFor(30 * time.Second)
	if doneCount != 8 {
		t.Errorf("completed %d/8 flows", doneCount)
	}
	if srv.Accepted != 8 {
		t.Errorf("accepted = %d, want 8", srv.Accepted)
	}
	if srv.Received() != 8*units.MB {
		t.Errorf("received %v, want 8MB", srv.Received())
	}
}

func TestTraceCwndRecordsBackoff(t *testing.T) {
	n, c, s := path(t, 13, units.Gbps, 2*time.Millisecond, &netsim.PeriodicLoss{N: 3000}, 1500)
	srv := NewServer(s, 5001, Tuned())
	conn := Dial(c, srv, -1, Tuned(), nil)
	trace := conn.TraceCwnd(10 * time.Millisecond)
	n.RunFor(5 * time.Second)
	if trace.Len() < 100 {
		t.Fatalf("trace samples = %d, want ~500", trace.Len())
	}
	// Sawtooth: max must exceed mean (backoffs happened).
	if trace.Max() <= trace.Mean()*1.05 {
		t.Error("cwnd trace shows no sawtooth")
	}
}

func TestStatsStringAndDuration(t *testing.T) {
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 1500)
	srv := NewServer(s, 5001, Tuned())
	var done *Stats
	Dial(c, srv, 10*units.KB, Tuned(), func(st *Stats) { done = st })
	n.Run()
	if done.Duration() <= 0 {
		t.Error("nonpositive duration")
	}
	if done.String() == "" {
		t.Error("empty String")
	}
	if done.Throughput() <= 0 {
		t.Error("nonpositive throughput")
	}
}

func TestSeriesHelpers(t *testing.T) {
	var s Series
	if s.Max() != 0 || s.Mean() != 0 {
		t.Error("empty series should return 0")
	}
	s.Add(0, 1)
	s.Add(1, 3)
	if s.Max() != 3 || math.Abs(s.Mean()-2) > 1e-12 || s.Len() != 2 {
		t.Error("series stats wrong")
	}
}

func TestDialAcrossNetworksPanics(t *testing.T) {
	n1 := netsim.New(1)
	n2 := netsim.New(2)
	h1 := n1.NewHost("a")
	h2 := n2.NewHost("b")
	x := n2.NewHost("x")
	n2.Connect(h2, x, netsim.LinkConfig{Rate: units.Gbps})
	srv := NewServer(h2, 5001, Tuned())
	defer func() {
		if recover() == nil {
			t.Error("cross-network Dial did not panic")
		}
	}()
	Dial(h1, srv, units.KB, Tuned(), nil)
}

func TestTraceThroughputShowsStep(t *testing.T) {
	// A paced flow whose pace doubles mid-run shows the step in its
	// throughput trace — the Figure 8 "utilization jumped after the
	// firewall fix" visual, mechanically.
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 1500)
	srv := NewServer(s, 5001, Tuned())
	opts := Tuned()
	opts.PaceRate = 100 * units.Mbps
	conn := Dial(c, srv, -1, opts, nil)
	trace := conn.TraceThroughput(100 * time.Millisecond)
	n.RunFor(2 * time.Second)
	conn.opts.PaceRate = 400 * units.Mbps
	n.RunFor(2 * time.Second)
	if trace.Len() < 30 {
		t.Fatalf("trace samples = %d", trace.Len())
	}
	early := stats.Mean(trace.Values[5:15])
	late := stats.Mean(trace.Values[25:35])
	if late < 2.5*early {
		t.Errorf("trace step: early=%.0f late=%.0f, want ~4x jump", early, late)
	}
}

func TestLossyTransferReusesPacketsAndAuditsClean(t *testing.T) {
	// End-to-end free-list check: a lossy transfer (retransmissions, SACK
	// ACKs, delayed ACKs) must recycle segments through the pool without
	// unbalancing the conservation ledger. 1% loss over the ~1,400 data
	// segments of 2 MB is ~14 expected drops, so a retransmission is
	// near-certain whatever the seed draws.
	n, c, s := path(t, 7, units.Gbps, time.Millisecond, &netsim.RandomLoss{P: 1e-2}, 1500)
	srv := NewServer(s, 5001, Tuned())
	var done *Stats
	Dial(c, srv, 2*units.MB, Tuned(), func(st *Stats) { done = st })
	n.Run()
	if done == nil || !done.Done {
		t.Fatal("transfer never completed")
	}
	if done.Retransmits == 0 {
		t.Error("lossy path saw no retransmissions; loss model inert?")
	}
	if n.PacketsReused() == 0 {
		t.Error("transfer completed without reusing a single pooled packet")
	}
	if errs := n.AuditInvariants(); len(errs) > 0 {
		t.Fatalf("audit violations after pooled transfer: %v", errs)
	}
}

func TestLinkFlapMidTransferRecovers(t *testing.T) {
	// Flap the WAN link mid-transfer: take it down for 400 ms, then
	// restore. The sender must survive on RTOs, resume after the link
	// returns, and the packet-conservation ledger must still balance.
	n, c, s := path(t, 5, units.Gbps, time.Millisecond, nil, 1500)
	link := n.LinkBetween("r1", "r2")
	if link == nil {
		t.Fatal("no r1<->r2 link")
	}
	srv := NewServer(s, 5001, Tuned())
	var done *Stats
	conn := Dial(c, srv, 20*units.MB, Tuned(), func(st *Stats) { done = st })

	var ackedAtRestore units.ByteSize
	n.Sched.After(5*time.Millisecond, func() { link.SetDown(true) })
	n.Sched.After(405*time.Millisecond, func() {
		link.SetDown(false)
		ackedAtRestore = conn.Stats().BytesAcked
	})
	n.RunFor(30 * time.Second)

	if done == nil {
		t.Fatal("transfer did not finish after the flap")
	}
	if done.RTOs == 0 {
		t.Error("a 400ms outage should have forced at least one RTO")
	}
	if done.BytesAcked != 20*units.MB {
		t.Errorf("acked %v, want 20MB", done.BytesAcked)
	}
	if done.BytesAcked <= ackedAtRestore {
		t.Errorf("no forward progress after restore: %v then %v", ackedAtRestore, done.BytesAcked)
	}
	if srv.Received() != 20*units.MB {
		t.Errorf("server received %v, want 20MB", srv.Received())
	}
	if errs := n.AuditInvariants(); len(errs) > 0 {
		t.Fatalf("invariants violated after flap: %v", errs)
	}
}

// collectEvents subscribes a capture buffer to a fresh telemetry plane
// attached to n, returning the captured slice (filled during the run).
func collectEvents(n *netsim.Network) (*[]telemetry.Event, *telemetry.Telemetry) {
	tele := telemetry.New()
	n.AttachTelemetry(tele)
	evs := &[]telemetry.Event{}
	tele.Bus.Subscribe(func(e *telemetry.Event) { *evs = append(*evs, *e) })
	return evs, tele
}

func TestPhaseEventStreamCleanTransfer(t *testing.T) {
	// A loss-free transfer emits the full lifecycle — start, established,
	// phases, done(success) — and never enters the recovery phase.
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 1500)
	evs, _ := collectEvents(n)
	srv := NewServer(s, 5001, Tuned())
	Dial(c, srv, 5*units.MB, Tuned(), nil)
	n.Run()

	var phases []string
	var sawStart, sawEst, sawDone bool
	lastAcked := -1.0
	for _, e := range *evs {
		switch e.Kind {
		case telemetry.EvTCPStart:
			sawStart = true
			if e.Bytes != int64(5*units.MB) {
				t.Errorf("tcp_start bytes = %d, want 5MB", e.Bytes)
			}
		case telemetry.EvTCPEstablished:
			sawEst = true
			if e.Value <= 0 {
				t.Errorf("tcp_established handshake RTT = %v, want > 0", e.Value)
			}
			if !sawStart {
				t.Error("tcp_established before tcp_start")
			}
		case telemetry.EvTCPPhase:
			phases = append(phases, e.Reason)
			if e.Value < lastAcked {
				t.Errorf("phase event bytes-acked went backwards: %v after %v", e.Value, lastAcked)
			}
			lastAcked = e.Value
		case telemetry.EvTCPDone:
			sawDone = true
			if e.Reason != "success" {
				t.Errorf("tcp_done reason = %q, want success", e.Reason)
			}
			if e.Bytes != int64(5*units.MB) {
				t.Errorf("tcp_done bytes = %d, want 5MB", e.Bytes)
			}
		}
	}
	if !sawStart || !sawEst || !sawDone {
		t.Fatalf("lifecycle incomplete: start=%v est=%v done=%v", sawStart, sawEst, sawDone)
	}
	if len(phases) == 0 || phases[0] != telemetry.PhaseSlowStart {
		t.Fatalf("phases = %v, want slow-start first", phases)
	}
	for i := 1; i < len(phases); i++ {
		if phases[i] == phases[i-1] {
			t.Errorf("consecutive duplicate phase %q at %d", phases[i], i)
		}
		if phases[i] == telemetry.PhaseRecovery {
			t.Errorf("clean transfer entered recovery phase")
		}
	}
	// The transfer ends waiting on the final ACKs: app-limited last.
	if phases[len(phases)-1] != telemetry.PhaseAppLimited {
		t.Errorf("final phase = %q, want app-limited", phases[len(phases)-1])
	}
}

func TestPhaseEventStreamLossEntersRecovery(t *testing.T) {
	// A mid-flow loss must surface as a recovery phase interval that
	// ends (a later event carries a different phase) once repaired.
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 1500)
	evs, _ := collectEvents(n)
	srv := NewServer(s, 5001, Tuned())
	dropped := false
	n.Node("r1").(*netsim.Device).AddFilter(dropOnce{when: func(p *netsim.Packet) bool {
		if !dropped && p.IsTCPData(HeaderSize) && p.Seq > 500_000 {
			dropped = true
			return true
		}
		return false
	}})
	var done *Stats
	Dial(c, srv, 5*units.MB, Tuned(), func(st *Stats) { done = st })
	n.RunFor(30 * time.Second)
	if done == nil || !done.Done {
		t.Fatal("transfer did not finish")
	}
	recoveryAt := -1
	var after []string
	for _, e := range *evs {
		if e.Kind != telemetry.EvTCPPhase {
			continue
		}
		if e.Reason == telemetry.PhaseRecovery && recoveryAt < 0 {
			recoveryAt = 1
			continue
		}
		if recoveryAt > 0 {
			after = append(after, e.Reason)
		}
	}
	if recoveryAt < 0 {
		t.Fatal("loss never produced a recovery phase event")
	}
	if len(after) == 0 {
		t.Fatal("recovery phase never ended")
	}
}

func TestPhaseEventsFreeWithoutTelemetry(t *testing.T) {
	// With no telemetry attached the phase machinery must not publish
	// anything and must not perturb behaviour: same Stats as ever.
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 1500)
	srv := NewServer(s, 5001, Tuned())
	conn := Dial(c, srv, 100*units.KB, Tuned(), nil)
	n.Run()
	if conn.phase != "" {
		t.Errorf("phase tracked without a bus: %q", conn.phase)
	}
	if !conn.Done() {
		t.Error("transfer did not complete")
	}
}
