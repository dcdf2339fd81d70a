package fluid

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// Validation: the fluid model earns its 100× speedup only if it
// reproduces what the packets it replaced would have done. Validate
// runs the same small scenario twice — all-packet (background as real
// per-packet TCP mice via a Poisson generator) and hybrid (background
// as fluid aggregates) — and compares three observables:
//
//   - elephant throughput: what the full-fidelity science flow achieves
//     against the background;
//   - background delivered bytes: the load the mice actually got
//     through end to end;
//   - background loss fraction: how hard the shared bottleneck pushed
//     back on the mice.
//
// Agreement is asserted within Tolerance. The defaults (25% relative on
// rates/bytes, 3 points absolute on loss) are deliberately loose: a
// rate-space model with a 10ms tick cannot reproduce packet-level
// burstiness, slow-start overshoot, or RTO tails — it targets the
// steady-state split of capacity, which is what the campus-background
// experiments measure.

// Scenario is one validation case: clients → server background over a
// shared bottleneck, plus one unbounded tuned elephant crossing it.
type Scenario struct {
	Name           string
	Clients        int
	FlowsPerSecond float64        // total background arrival rate
	MeanSize       units.ByteSize // mean mouse size (zero: 100 KB)
	Flows          int            // concurrent population for the fluid cap
	Bottleneck     units.BitRate
	Delay          time.Duration  // one-way bottleneck delay
	Buffer         units.ByteSize // switch egress buffer (zero: 4 MB)
	Elephant       bool
	// Warmup runs before the measurement window so the elephant's
	// slow-start transient (which a rate-space model deliberately does
	// not reproduce) settles; observables are deltas over Duration.
	Warmup   time.Duration
	Duration time.Duration
	Seed     int64
}

// Tolerance bounds the hybrid-vs-packet disagreement Validate accepts.
type Tolerance struct {
	// ElephantRel is the max relative error on elephant throughput.
	ElephantRel float64
	// BackgroundRel is the max relative error on background delivered
	// bytes.
	BackgroundRel float64
	// LossAbs is the max absolute difference on the background loss
	// fraction.
	LossAbs float64
}

// DefaultTolerance returns the documented validation tolerance.
func DefaultTolerance() Tolerance {
	return Tolerance{ElephantRel: 0.25, BackgroundRel: 0.25, LossAbs: 0.05}
}

// ModeStats are the observables of one run (either mode).
type ModeStats struct {
	Elephant units.BitRate  // elephant throughput (0 when no elephant)
	BgBytes  units.ByteSize // background bytes delivered end to end
	BgLoss   float64        // background loss fraction
	Events   uint64         // scheduler events executed, control and shard schedulers summed
}

// Result is the paired comparison for one scenario.
type Result struct {
	Scenario       Scenario
	Packet, Hybrid ModeStats

	ElephantErr   float64 // |hybrid-packet|/packet, 0 when no elephant
	BackgroundErr float64
	LossDiff      float64
}

// Pass reports whether the comparison is within tolerance.
func (r Result) Pass(tol Tolerance) bool {
	return len(r.Failures(tol)) == 0
}

// Failures returns one message per tolerance violation.
func (r Result) Failures(tol Tolerance) []string {
	var out []string
	if r.ElephantErr > tol.ElephantRel {
		out = append(out, fmt.Sprintf("elephant throughput disagrees by %.1f%% (packet %v, hybrid %v, tol %.0f%%)",
			100*r.ElephantErr, r.Packet.Elephant, r.Hybrid.Elephant, 100*tol.ElephantRel))
	}
	if r.BackgroundErr > tol.BackgroundRel {
		out = append(out, fmt.Sprintf("background delivered bytes disagree by %.1f%% (packet %v, hybrid %v, tol %.0f%%)",
			100*r.BackgroundErr, r.Packet.BgBytes, r.Hybrid.BgBytes, 100*tol.BackgroundRel))
	}
	if r.LossDiff > tol.LossAbs {
		out = append(out, fmt.Sprintf("background loss disagrees by %.3f absolute (packet %.3f, hybrid %.3f, tol %.3f)",
			r.LossDiff, r.Packet.BgLoss, r.Hybrid.BgLoss, tol.LossAbs))
	}
	return out
}

// Validate runs the scenario in both modes and compares. Like RunPacket
// and RunHybrid, it builds its networks through ctx.
func Validate(ctx *harness.Ctx, sc Scenario) Result {
	r := Result{Scenario: sc}
	r.Packet = RunPacket(ctx, sc)
	r.Hybrid, _ = RunHybrid(ctx, sc)
	if sc.Elephant && r.Packet.Elephant > 0 {
		r.ElephantErr = relErr(float64(r.Hybrid.Elephant), float64(r.Packet.Elephant))
	}
	if r.Packet.BgBytes > 0 {
		r.BackgroundErr = relErr(float64(r.Hybrid.BgBytes), float64(r.Packet.BgBytes))
	}
	r.LossDiff = r.Hybrid.BgLoss - r.Packet.BgLoss
	if r.LossDiff < 0 {
		r.LossDiff = -r.LossDiff
	}
	return r
}

func relErr(got, want float64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

// Scenarios returns the canonical small validation cases CI runs: a
// lightly loaded path, a contended split where the background takes a
// meaningful fraction of the bottleneck away from the elephant, and a
// background-only case. Flows is the estimated concurrent mouse
// population (Little's law on arrival rate × per-flow service time),
// which weights the fair split against the elephant. The packet
// references stay out of overload collapse on purpose: a rate-space
// model validates against regimes where TCP has a steady state.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name: "light-load", Clients: 4, FlowsPerSecond: 40,
			Flows: 4, Bottleneck: units.Gbps, Delay: 5 * time.Millisecond,
			// A 1 MB buffer (1× BDP) bounds the elephant's slow-start
			// overshoot so CUBIC converges inside the warmup; with deep
			// buffers its post-overshoot creep takes tens of seconds in
			// BOTH modes, which only stretches the run without testing
			// anything about the fluid coupling.
			Buffer:   units.MB,
			Elephant: true, Warmup: 3 * time.Second, Duration: 5 * time.Second, Seed: 1,
		},
		{
			Name: "contended", Clients: 8, FlowsPerSecond: 150,
			MeanSize: 250 * units.KB, Flows: 12,
			Bottleneck: 500 * units.Mbps, Delay: 5 * time.Millisecond,
			Elephant: true, Warmup: 2 * time.Second, Duration: 5 * time.Second, Seed: 2,
		},
		{
			Name: "no-elephant", Clients: 4, FlowsPerSecond: 120,
			Flows: 4, Bottleneck: 200 * units.Mbps, Delay: 2 * time.Millisecond,
			Elephant: false, Warmup: time.Second, Duration: 5 * time.Second, Seed: 3,
		},
	}
}

// scenarioNet builds the shared dumbbell: clients and an elephant
// source on one switch, the background server and elephant sink on the
// other, bottleneck between the switches. The bottleneck link is a cut
// candidate so hybrid scenarios exercise sharded execution.
type scenarioNet struct {
	net      *netsim.Network
	clients  []*netsim.Host
	bgServer *netsim.Host
	ephSrc   *netsim.Host
	ephDst   *netsim.Host
}

func buildScenario(ctx *harness.Ctx, mode string, sc Scenario) *scenarioNet {
	n := ctx.Adopt(mode+"/"+sc.Name, netsim.New(sc.Seed))
	s := &scenarioNet{net: n}
	buf := sc.Buffer
	if buf == 0 {
		buf = 4 * units.MB
	}
	swA := n.NewDevice("swA", netsim.DeviceConfig{EgressBuffer: buf})
	swB := n.NewDevice("swB", netsim.DeviceConfig{EgressBuffer: buf})
	n.Connect(swA, swB, netsim.LinkConfig{Rate: sc.Bottleneck, Delay: sc.Delay}).MarkCut()
	s.bgServer = n.NewHost("bg-server")
	n.Connect(s.bgServer, swB, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	for i := 0; i < sc.Clients; i++ {
		h := n.NewHost(fmt.Sprintf("client%02d", i))
		n.Connect(h, swA, netsim.LinkConfig{Rate: units.Gbps, Delay: 10 * time.Microsecond})
		s.clients = append(s.clients, h)
	}
	if sc.Elephant {
		s.ephSrc = n.NewHost("eph-src")
		s.ephDst = n.NewHost("eph-dst")
		n.Connect(s.ephSrc, swA, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
		n.Connect(s.ephDst, swB, netsim.LinkConfig{Rate: 10 * units.Gbps, Delay: 10 * time.Microsecond})
	}
	n.ComputeRoutes()
	return s
}

func (s *scenarioNet) startElephant() *tcp.Conn {
	if s.ephSrc == nil {
		return nil
	}
	srv := tcp.NewServer(s.ephDst, 5001, tcp.Tuned())
	return tcp.Dial(s.ephSrc, srv, -1, tcp.TunedWith(&tcp.Cubic{}), nil)
}

// eventsProcessed counts every event the run executed, on the control
// and every shard scheduler.
func eventsProcessed(n *netsim.Network) uint64 {
	var total uint64
	for _, s := range n.Schedulers() {
		total += s.Processed
	}
	return total
}

// RunPacket runs the scenario with per-packet background mice
// (flowgen.Business equivalent, inlined here to avoid an import cycle
// with flowgen) on a network ctx adopts.
func RunPacket(ctx *harness.Ctx, sc Scenario) ModeStats {
	s := buildScenario(ctx, "packet", sc)
	meanSize := sc.MeanSize
	if meanSize == 0 {
		meanSize = 100 * units.KB
	}
	bg := startPacketMice(s, sc, meanSize)
	eph := s.startElephant()
	if sc.Warmup > 0 {
		s.net.RunFor(sc.Warmup)
	}
	var ephBase units.ByteSize
	if eph != nil {
		ephBase = eph.Stats().BytesAcked
	}
	ackedBase, dropBase := bg.acked, bg.dropped
	s.net.RunFor(sc.Duration)

	st := ModeStats{Events: eventsProcessed(s.net)}
	if eph != nil {
		st.Elephant = rateOver(eph.Stats().BytesAcked-ephBase, sc.Duration)
	}
	st.BgBytes = bg.acked - ackedBase
	dropped := bg.dropped - dropBase
	if total := st.BgBytes + dropped; total > 0 {
		st.BgLoss = float64(dropped) / float64(total)
	}
	return st
}

func rateOver(b units.ByteSize, d time.Duration) units.BitRate {
	return units.BitRate(float64(b) * 8 / d.Seconds())
}

// packetMice is the all-packet background generator: a Poisson stream
// of legacy TCP mice, the reference the fluid model is validated
// against. It mirrors flowgen.Business, drawing from its own stream
// rooted in the scenario seed, and additionally counts dropped
// background bytes via the DropHook.
type packetMice struct {
	s       *scenarioNet
	mean    units.ByteSize
	srv     *tcp.Server
	rng     *rand.Rand
	lambda  float64
	acked   units.ByteSize
	dropped units.ByteSize
}

func startPacketMice(s *scenarioNet, sc Scenario, mean units.ByteSize) *packetMice {
	m := &packetMice{
		s: s, mean: mean,
		srv:    tcp.NewServer(s.bgServer, 80, tcp.Legacy()),
		rng:    s.net.Stream("fluid/validate", sc.Name),
		lambda: sc.FlowsPerSecond,
	}
	s.net.DropHook = func(pkt *netsim.Packet, _ netsim.DropSite) {
		if pkt.Flow.Dst == "bg-server" {
			m.dropped += pkt.Size
		}
	}
	m.next()
	return m
}

func (m *packetMice) next() {
	if m.lambda <= 0 {
		return
	}
	wait := time.Duration(m.rng.ExpFloat64() / m.lambda * float64(time.Second))
	if wait < time.Microsecond {
		wait = time.Microsecond
	}
	m.s.net.Sched.After(wait, func() {
		client := m.s.clients[m.rng.Intn(len(m.s.clients))]
		size := units.ByteSize(m.rng.ExpFloat64() * float64(m.mean))
		if size < units.KB {
			size = units.KB
		}
		tcp.Dial(client, m.srv, size, tcp.Legacy(), func(st *tcp.Stats) {
			m.acked += st.BytesAcked
		})
		m.next()
	})
}

// RunHybrid runs the scenario with the background as fluid aggregates,
// on a network ctx adopts. The engine is returned so callers
// (experiments, benchmarks) can read aggregate state after the run.
func RunHybrid(ctx *harness.Ctx, sc Scenario) (ModeStats, *Engine) {
	s := buildScenario(ctx, "hybrid", sc)
	meanSize := sc.MeanSize
	if meanSize == 0 {
		meanSize = 100 * units.KB
	}
	eng := New(s.net, Config{})
	perClient := sc.FlowsPerSecond / float64(len(s.clients))
	for i, c := range s.clients {
		flows := sc.Flows / len(s.clients)
		if i < sc.Flows%len(s.clients) {
			flows++
		}
		if _, err := eng.Add(AggregateConfig{
			Name:           "bg/" + c.Name(),
			Src:            c.Name(),
			Dst:            s.bgServer.Name(),
			FlowsPerSecond: perClient,
			MeanSize:       meanSize,
			Flows:          flows,
			Window:         64 * units.KiB, // legacy mice: window-limited like tcp.Legacy
		}); err != nil {
			panic(err) // static scenario construction; cannot fail at runtime
		}
	}
	eng.Start()
	eph := s.startElephant()
	if sc.Warmup > 0 {
		s.net.RunFor(sc.Warmup)
	}
	var ephBase, delivBase, offerBase units.ByteSize
	if eph != nil {
		ephBase = eph.Stats().BytesAcked
	}
	for _, a := range eng.Aggregates() {
		delivBase += a.DeliveredBytes()
		offerBase += a.OfferedBytes()
	}
	s.net.RunFor(sc.Duration)

	st := ModeStats{Events: eventsProcessed(s.net)}
	if eph != nil {
		st.Elephant = rateOver(eph.Stats().BytesAcked-ephBase, sc.Duration)
	}
	var offered units.ByteSize
	for _, a := range eng.Aggregates() {
		st.BgBytes += a.DeliveredBytes()
		offered += a.OfferedBytes()
	}
	st.BgBytes -= delivBase
	offered -= offerBase
	if offered > 0 {
		st.BgLoss = 1 - float64(st.BgBytes)/float64(offered)
	}
	return st, eng
}
