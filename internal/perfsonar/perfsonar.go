// Package perfsonar models the perfSONAR measurement suite that the
// Science DMZ's performance-monitoring pattern deploys (§3.3).
//
// Two active measurement tools are implemented against the simulated
// network:
//
//   - OWAMP: continuous low-rate one-way UDP probe streams that measure
//     packet loss and one-way delay. Because the probes are real
//     simulated packets, they die in the same queues and on the same
//     failing links as science data — which is how the §2.1 failing line
//     card was found when SNMP error counters showed nothing.
//
//   - BWCTL: scheduled TCP throughput tests (iperf-style, fixed
//     duration) between toolkit hosts, using the real internal/tcp
//     engine.
//
// Results land in a measurement Archive feeding threshold alerting and
// the Figure 2 dashboard grid.
package perfsonar

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/units"
)

// tagPerfsonar attributes measurement events in scheduler telemetry.
var tagPerfsonar = sim.TagFor("perfsonar")

// Well-known ports for the measurement services.
const (
	OwampPort uint16 = 861
	BwctlPort uint16 = 5201
)

// owampProbe is the payload of an OWAMP test packet. Interval carries
// the sender's declared schedule (real OWAMP sessions negotiate it), so
// the receiver can count missing probes even through a total blackout.
type owampProbe struct {
	Seq      uint64
	Sender   string
	Interval time.Duration
}

// owampProbeSize is the on-wire probe size in bytes.
const owampProbeSize units.ByteSize = 64

// Toolkit is a perfSONAR host: it terminates OWAMP probe streams and
// serves BWCTL throughput tests, publishing everything to an Archive.
type Toolkit struct {
	Host    *netsim.Host
	Archive *Archive

	net      *netsim.Network
	srv      *tcp.Server
	receive  map[string]*owampReceiver // sender host -> state
	interval time.Duration             // archive bucketing
}

// NewToolkit attaches a measurement toolkit to a host, publishing to the
// given archive (create one Archive per deployment and share it).
func NewToolkit(h *netsim.Host, archive *Archive) *Toolkit {
	t := &Toolkit{
		Host:     h,
		Archive:  archive,
		net:      h.Network(),
		receive:  make(map[string]*owampReceiver),
		interval: 5 * time.Second,
	}
	h.Bind(netsim.ProtoUDP, OwampPort, netsim.HandlerFunc(t.owampDeliver))
	t.srv = tcp.NewServer(h, BwctlPort, tcp.Tuned())
	return t
}

// owampReceiver tracks one incoming probe stream.
type owampReceiver struct {
	maxSeq   uint64 // highest sequence seen (+1 = expected count)
	received uint64
	delaySum time.Duration
	seen     bool
	schedule time.Duration // sender's declared probe interval

	// Values at the last archive flush.
	lastMax, lastReceived uint64
	lastDelaySum          time.Duration
}

// ensureReceiver registers probe-stream state for a sender and starts
// the control-plane flush ticker that buckets it into the archive. It
// must run in control context (session setup), never from packet
// delivery: owampDeliver executes on the receiving host's shard, which
// must not touch the control scheduler.
func (t *Toolkit) ensureReceiver(sender string) *owampReceiver {
	r := t.receive[sender]
	if r == nil {
		r = &owampReceiver{}
		t.receive[sender] = r
		t.net.Sched.EveryTag(tagPerfsonar, t.interval, func() { t.flushOwamp(sender, r) })
	}
	return r
}

// owampDeliver receives OWAMP probes on the shard-local data path; it
// is bound through a netsim.HandlerFunc adapter the callgraph cannot
// see.
//
//dmz:datapath
func (t *Toolkit) owampDeliver(pkt *netsim.Packet) {
	probe, ok := pkt.Payload.(owampProbe)
	if !ok {
		return
	}
	r := t.receive[probe.Sender]
	if r == nil {
		// A probe with no announced session (the sender never called
		// StartOWAMP toward us): record nothing. Receiver registration
		// is control-plane work and cannot happen on the delivery path.
		return
	}
	if !r.seen || probe.Seq > r.maxSeq {
		r.maxSeq = probe.Seq
		r.seen = true
	}
	r.schedule = probe.Interval
	r.received++
	r.delaySum += t.Host.Now().Sub(pkt.SentAt)
}

// flushOwamp converts the last bucket of probe arrivals into an archived
// loss/delay measurement. A bucket with zero arrivals still archives —
// as 100% loss, per the declared schedule — so a blackout looks like
// what it is rather than a gap in the data.
func (t *Toolkit) flushOwamp(sender string, r *owampReceiver) {
	if !r.seen {
		return
	}
	expected := r.maxSeq + 1 - (r.lastMax + 1)
	if r.lastReceived == 0 && r.lastMax == 0 && r.lastDelaySum == 0 {
		// First bucket: expected counts from sequence zero.
		expected = r.maxSeq + 1
	}
	got := r.received - r.lastReceived
	if got == 0 {
		// Nothing arrived this bucket: infer the expected count from
		// the sender's declared schedule, and advance the sequence
		// accounting past the blackout so the next live bucket is not
		// charged for it too.
		if r.schedule <= 0 {
			return
		}
		r.lastMax += uint64(t.interval / r.schedule)
		if r.lastMax > r.maxSeq {
			r.maxSeq = r.lastMax
		}
		t.Archive.Add(Measurement{
			At:   t.net.Sched.Now(),
			Path: PathKey{Src: sender, Dst: t.Host.Name()},
			Kind: KindLoss,
			Loss: 1,
		})
		return
	}
	if expected == 0 {
		return
	}
	loss := 1 - float64(got)/float64(expected)
	if loss < 0 {
		loss = 0
	}
	delay := (r.delaySum - r.lastDelaySum) / time.Duration(got)
	t.Archive.Add(Measurement{
		At:   t.net.Sched.Now(),
		Path: PathKey{Src: sender, Dst: t.Host.Name()},
		Kind: KindLoss,
		Loss: loss, Delay: delay,
	})
	r.lastMax, r.lastReceived, r.lastDelaySum = r.maxSeq, r.received, r.delaySum
}

// OwampSession is a continuous probe stream to one peer.
type OwampSession struct {
	From, To *Toolkit
	Interval time.Duration

	seq    uint64
	ticker *sim.Ticker
}

// Sent returns the number of probes emitted so far.
func (s *OwampSession) Sent() uint64 { return s.seq }

// Stop ends the probe stream.
func (s *OwampSession) Stop() { s.ticker.Stop() }

// StartOWAMP begins probing the peer at the given interval (e.g. 100 ms
// for 10 probes/s). Results appear in the shared archive, attributed to
// the path from this toolkit's host to the peer's.
func (t *Toolkit) StartOWAMP(peer *Toolkit, interval time.Duration) *OwampSession {
	s := &OwampSession{From: t, To: peer, Interval: interval}
	peer.ensureReceiver(t.Host.Name())
	s.ticker = t.net.Sched.EveryTag(tagPerfsonar, interval, func() {
		t.Host.Send(&netsim.Packet{
			Flow: netsim.FlowKey{
				Src: t.Host.Name(), Dst: peer.Host.Name(),
				SrcPort: OwampPort, DstPort: OwampPort,
				Proto: netsim.ProtoUDP,
			},
			Size:    owampProbeSize,
			Payload: owampProbe{Seq: s.seq, Sender: t.Host.Name(), Interval: interval},
		})
		s.seq++
	})
	return s
}

// RunBWCTL starts one fixed-duration TCP throughput test toward the peer
// and archives the result when it ends.
func (t *Toolkit) RunBWCTL(peer *Toolkit, duration time.Duration, opts tcp.Options) {
	conn := tcp.Dial(t.Host, peer.srv, -1, opts, nil)
	t.net.Sched.AfterTag(tagPerfsonar, duration, func() {
		st := conn.Stats()
		conn.Abort()
		t.Archive.Add(Measurement{
			At:         t.net.Sched.Now(),
			Path:       PathKey{Src: t.Host.Name(), Dst: peer.Host.Name()},
			Kind:       KindThroughput,
			Throughput: st.Throughput(),
		})
	})
}

// ScheduleBWCTL runs a test every period, the first after initialDelay
// (stagger tests in a mesh so they do not measure each other).
func (t *Toolkit) ScheduleBWCTL(peer *Toolkit, initialDelay, period, duration time.Duration, opts tcp.Options) *sim.Ticker {
	var tick *sim.Ticker
	t.net.Sched.After(initialDelay, func() {
		t.RunBWCTL(peer, duration, opts)
		tick = t.net.Sched.Every(period, func() { t.RunBWCTL(peer, duration, opts) })
	})
	return tick
}

// Mesh wires toolkits onto a set of hosts with a shared archive and runs
// full-mesh regular testing — the deployment behind Figure 2.
type Mesh struct {
	Toolkits []*Toolkit
	Archive  *Archive

	net *netsim.Network
}

// NewMesh creates toolkits on each host sharing one archive.
func NewMesh(hosts ...*netsim.Host) *Mesh {
	if len(hosts) == 0 {
		panic("perfsonar: mesh needs at least one host")
	}
	m := &Mesh{Archive: NewArchive(), net: hosts[0].Network()}
	for _, h := range hosts {
		m.Toolkits = append(m.Toolkits, NewToolkit(h, m.Archive))
	}
	if tele := m.net.Telemetry(); tele != nil {
		m.Archive.BindRegistry(tele.Registry)
	}
	return m
}

// StartOWAMP begins probe streams on every ordered pair and returns the
// sessions in deployment order. The closed-loop fault monitor starts
// probing on demand and needs the handles; Figure 2-style deployments
// may ignore them.
func (m *Mesh) StartOWAMP(interval time.Duration) []*OwampSession {
	var out []*OwampSession
	for _, a := range m.Toolkits {
		for _, b := range m.Toolkits {
			if a != b {
				out = append(out, a.StartOWAMP(b, interval))
			}
		}
	}
	return out
}

// StartBWCTL schedules staggered throughput tests on every ordered pair:
// each test lasts duration, pairs take turns, and every pair repeats
// each period.
func (m *Mesh) StartBWCTL(period, duration time.Duration, opts tcp.Options) {
	slot := 0
	for _, a := range m.Toolkits {
		for _, b := range m.Toolkits {
			if a == b {
				continue
			}
			a.ScheduleBWCTL(b, time.Duration(slot)*duration, period, duration, opts)
			slot++
		}
	}
}
