package tcp

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Scheduler-attribution tags for tcp components (see sim.TagFor).
var (
	tagSender   = sim.TagFor("tcp.sender")
	tagReceiver = sim.TagFor("tcp.receiver")
	tagTrace    = sim.TagFor("tcp.trace")
)

// Sender is the data-sending endpoint of a connection: the full NewReno
// machine. Cwnd is exported (in bytes) for CongestionControl modules.
type Sender struct {
	Cwnd float64 // congestion window, bytes

	host   *netsim.Host
	flow   netsim.FlowKey
	mss    int
	opts   Options
	cc     CongestionControl
	onDone func(*Stats)

	established bool
	peerWScale  int  // scale the peer applies to windows it sends us
	scalingOn   bool // both sides carried the option
	sackOK      bool // SACK negotiated

	// SACK scoreboard: ranges above sndUna the receiver holds. highRxt
	// is RFC 6675's HighRxt, the hole-scan cursor: every segment below
	// it was retransmitted in the current recovery episode or is SACKed,
	// and SACKed ranges only grow until an RTO clears both.
	sacked  rangeSet
	highRxt int64

	ssthresh float64
	sndUna   int64
	sndNxt   int64
	maxSent  int64 // high-water mark, for counting retransmissions
	total    int64 // bytes to send; -1 = unbounded
	rwnd     int64
	dupAcks  int

	inRecovery bool
	recover    int64
	// repairHi is the highest sequence sent before the most recent loss
	// signal (fast retransmit, resumed episode, or RTO). Until sndUna
	// passes it the transfer is still repairing lost data, so the span
	// layer attributes elapsed time to recovery even in the post-RTO
	// window where inRecovery is false. Tracked unconditionally: it is
	// two compares per loss event and never feeds back into behaviour.
	repairHi int64
	// recoverHi is the loss-episode high-water mark (RFC 6582): loss
	// signals for data at or below it belong to an episode that already
	// took its multiplicative decrease, so recovery resumes without
	// another backoff. Without this, a mass-loss episode interrupted by
	// an RTO charges one cwnd halving per revealed hole and pins the
	// window at its floor.
	recoverHi int64

	srtt, rttvar time.Duration
	rto          time.Duration
	rttSeq       int64
	rttSentAt    sim.Time
	rttValid     bool

	rtoTimer  sim.Timer
	synTimer  sim.Timer
	synTries  int
	synSentAt sim.Time

	paceNext  sim.Time // earliest time the next paced segment may leave
	paceTimer sim.Timer
	tsqTimer  sim.Timer

	// wasCwndLimited records whether, since the last ACK, a transmission
	// attempt was blocked by cwnd specifically (not by the receive
	// window or pacing). RFC 2861-style cwnd validation keys off it.
	wasCwndLimited bool

	// Limited counts why transmission loops stopped — diagnostic
	// visibility into which constraint binds a connection.
	Limited struct {
		Cwnd, Rwnd, Pace, Burst, Data, Tsq uint64
	}

	stats Stats
	done  bool

	// cwndTrace, when enabled via TraceCwnd, records (time, cwnd) pairs.
	cwndTrace *Series

	// Telemetry wiring: bus is nil (and nil-safe) when the network has
	// no telemetry attached; flowStr caches the flow label; rttHist,
	// when non-nil, receives RTT samples.

	flowStr string
	rttHist *telemetry.Histogram

	// phase is the last binding-constraint phase published as an
	// EvTCPPhase event (see telemetry.Phase*). Empty until the first
	// transition; only maintained while the bus is enabled.
	phase string
}

func newSender(net *netsim.Network, host *netsim.Host, flow netsim.FlowKey,
	mss int, size units.ByteSize, opts Options, onDone func(*Stats)) *Sender {
	total := int64(size)
	if size < 0 {
		total = -1
	}
	s := &Sender{
		host:   host,
		flow:   flow,
		mss:    mss,
		opts:   opts,
		cc:     opts.CC,
		onDone: onDone,
		total:  total,
		rto:    time.Second,
		rwnd:   int64(opts.RcvBuf), // refined by the SYN-ACK
	}
	s.Cwnd = float64(opts.InitialCwnd * mss)
	s.ssthresh = 1 << 30 // effectively unbounded until first loss
	s.stats = Stats{
		Flow:   flow,
		CCName: opts.CC.Name(),
		MSS:    mss,
		Start:  host.Now(),
	}
	if tele := net.Telemetry(); tele != nil {
		s.flowStr = flow.String()
		l := telemetry.Labels{"flow": s.flowStr}
		tele.Registry.GaugeFunc("tcp_cwnd_bytes", l, func() float64 { return s.Cwnd })
		tele.Registry.GaugeFunc("tcp_bytes_acked", l, func() float64 { return float64(s.stats.BytesAcked) })
		tele.Registry.GaugeFunc("tcp_retransmits", l, func() float64 { return float64(s.stats.Retransmits) })
		tele.Registry.GaugeFunc("tcp_rtos", l, func() float64 { return float64(s.stats.RTOs) })
		s.rttHist = tele.Registry.Histogram("tcp_srtt_seconds", l,
			[]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5})
	}
	return s
}

// emit publishes a TCP trace event; a single branch when tracing is off.
//
//dmzvet:coldpath emission is guarded by bus.Enabled(); untraced steady state returns before allocating
func (s *Sender) emit(kind telemetry.EventKind, reason string, seq int64, value float64) {
	if !s.bus().Enabled() {
		return
	}
	if s.flowStr == "" {
		s.flowStr = s.flow.String()
	}
	s.bus().Emit(telemetry.Event{
		At:     s.now(),
		Kind:   kind,
		Node:   s.flow.Src,
		Flow:   s.flowStr,
		Reason: reason,
		Seq:    seq,
		Value:  value,
	})
}

// emitLifecycle publishes a transfer lifecycle event (tcp_start /
// tcp_done), which carries a byte count rather than a seq/value pair.
func (s *Sender) emitLifecycle(kind telemetry.EventKind, reason string, bytes int64, value float64) {
	if !s.bus().Enabled() {
		return
	}
	if s.flowStr == "" {
		s.flowStr = s.flow.String()
	}
	s.bus().Emit(telemetry.Event{
		At:     s.now(),
		Kind:   kind,
		Node:   s.flow.Src,
		Flow:   s.flowStr,
		Reason: reason,
		Bytes:  bytes,
		Value:  value,
	})
}

// setPhase publishes a binding-constraint transition as an EvTCPPhase
// event. It sits on every transmission-loop exit, so the disabled-bus
// and no-change cases must stay branch-only (the span layer pays; an
// untraced run does not).
//
//dmz:hotpath
func (s *Sender) setPhase(phase string) {
	if !s.bus().Enabled() || s.phase == phase {
		return
	}
	s.phase = phase
	s.emit(telemetry.EvTCPPhase, phase, s.sndUna, float64(s.stats.BytesAcked))
}

// phaseFor maps the constraint that stopped the transmission loop onto
// the published phase: while lost data is still being repaired the
// episode is "recovery" regardless of which gate happened to bind.
//
//dmz:hotpath
func (s *Sender) phaseFor(constraint string) string {
	if s.inRecovery || s.sndUna < s.repairHi {
		return telemetry.PhaseRecovery
	}
	return constraint
}

// MSS returns the negotiated maximum segment size in bytes.
func (s *Sender) MSS() int { return s.mss }

// Flow returns the connection's flow key (client -> server direction).
func (s *Sender) Flow() netsim.FlowKey { return s.flow }

// Stats returns a snapshot of the connection statistics, with End set to
// now for in-progress connections.
func (s *Sender) Stats() *Stats {
	st := s.stats
	if !s.done {
		st.End = s.sched().Now()
	}
	st.SRTT = s.srtt
	st.WScaleOK = s.scalingOn
	return &st
}

// Done reports whether all data has been acknowledged.
func (s *Sender) Done() bool { return s.done }

// InFlight returns unacknowledged bytes.
func (s *Sender) InFlight() units.ByteSize { return units.ByteSize(s.sndNxt - s.sndUna) }

// TraceThroughput samples goodput (bytes acknowledged per interval,
// expressed in bits/s) into the returned series, until the connection
// completes — the per-flow utilization series behind Figure 8.
func (s *Sender) TraceThroughput(interval time.Duration) *Series {
	tr := &Series{}
	last := s.stats.BytesAcked
	var tick *sim.Ticker
	tick = s.sched().EveryTag(tagTrace, interval, func() {
		if s.done {
			tick.Stop()
			return
		}
		delta := s.stats.BytesAcked - last
		last = s.stats.BytesAcked
		tr.Add(s.sched().Now(), float64(delta)*8/interval.Seconds())
	})
	return tr
}

// TraceCwnd samples the congestion window every interval into the
// returned series, until the connection completes.
func (s *Sender) TraceCwnd(interval time.Duration) *Series {
	s.cwndTrace = &Series{}
	var tick *sim.Ticker
	tick = s.sched().EveryTag(tagTrace, interval, func() {
		if s.done {
			tick.Stop()
			return
		}
		s.cwndTrace.Add(s.sched().Now(), s.Cwnd)
	})
	return s.cwndTrace
}

// sched returns the sender's event scheduler: its host's shard
// scheduler once the engine installs, the control scheduler before.
// Every sender timer and timestamp is host-affine so the whole TCP
// machine stays inside one shard.
func (s *Sender) sched() *sim.Scheduler { return s.host.EventScheduler() }

// bus resolves the host's trace bus on every use rather than caching
// it: a sender dialed before the sharded engine installs would
// otherwise hold the live bus and bypass the canonical barrier merge.
func (s *Sender) bus() *telemetry.Bus { return s.host.TraceBus() }

func (s *Sender) now() sim.Time { return s.sched().Now() }

// --- handshake ---

func (s *Sender) sendSYN() {
	ws := netsim.NoWScale
	if s.opts.WindowScale {
		ws = DefaultWindowScale
	}
	if s.synTries == 0 {
		s.emitLifecycle(telemetry.EvTCPStart, "", s.total, 0)
	}
	s.synSentAt = s.now()
	p := s.host.NewPacket()
	p.Flow = s.flow
	p.Size = HeaderSize
	p.Flags = netsim.FlagSYN
	p.WScale = ws
	p.MSSOpt = s.mss
	p.SackOK = !s.opts.NoSACK
	p.WindowRaw = int(min64(int64(s.opts.RcvBuf), 65535))
	s.host.Send(p)
	s.synTries++
	s.synTimer = s.sched().AfterTag(tagSender, time.Second*time.Duration(1<<uint(s.synTries-1)), func() {
		if !s.established && s.synTries < 6 {
			s.sendSYN()
		}
	})
}

// deliver is the sender-side segment handler, invoked through a
// netsim.HandlerFunc adapter the callgraph cannot see.
//
//dmz:datapath
func (s *Sender) deliver(pkt *netsim.Packet) {
	if !s.done {
		switch {
		case pkt.Flags.Has(netsim.FlagSYN | netsim.FlagACK):
			s.handleSynAck(pkt)
		case pkt.Flags.Has(netsim.FlagACK):
			s.handleAck(pkt)
		}
	}
	// The segment is fully consumed (SACK blocks are copied into the
	// scoreboard, nothing retains it); recycle it for the next send.
	s.host.ReleasePacket(pkt)
}

func (s *Sender) handleSynAck(pkt *netsim.Packet) {
	if s.established {
		// Duplicate SYN-ACK (our ACK was lost): re-ack.
		s.sendHandshakeAck()
		return
	}
	s.established = true
	s.synTimer.Stop()
	// Window scaling is on only if we offered it and the (possibly
	// middlebox-mangled) SYN-ACK still carries the option.
	s.scalingOn = s.opts.WindowScale && pkt.WScale != netsim.NoWScale
	if s.scalingOn {
		s.peerWScale = pkt.WScale
	} else {
		s.peerWScale = 0
	}
	s.sackOK = !s.opts.NoSACK && pkt.SackOK
	wsNegotiated := 0.0
	if s.scalingOn {
		wsNegotiated = 1
	}
	s.emit(telemetry.EvTCPWScale, "", 0, wsNegotiated)
	// The window field on a SYN-ACK is never scaled (RFC 1323 §2.2).
	s.rwnd = int64(pkt.WindowRaw)
	// Handshake RTT seeds the estimator.
	s.updateRTT(s.now().Sub(s.synSentAt))
	s.emitLifecycle(telemetry.EvTCPEstablished, "", 0, s.now().Sub(s.synSentAt).Seconds())
	s.sendHandshakeAck()
	s.cc.Start(s)
	s.setPhase(telemetry.PhaseSlowStart)
	s.trySend()
}

func (s *Sender) sendHandshakeAck() {
	p := s.host.NewPacket()
	p.Flow = s.flow
	p.Size = HeaderSize
	p.Flags = netsim.FlagACK
	s.host.Send(p)
}

// --- ACK processing ---

func (s *Sender) handleAck(pkt *netsim.Packet) {
	s.rwnd = int64(pkt.WindowRaw) << uint(s.peerWScale)
	ack := pkt.Ack

	if s.sackOK {
		for _, b := range pkt.Sack {
			start, end := b[0], b[1]
			if start < s.sndUna {
				start = s.sndUna
			}
			s.sacked.add(start, end)
		}
	}

	switch {
	case ack > s.sndUna:
		s.handleNewAck(ack)
	case ack == s.sndUna && s.sndNxt > s.sndUna:
		s.handleDupAck()
	}

	// RFC 6675-style loss detection: enough SACKed bytes above the
	// cumulative ACK imply loss even without three exact duplicates.
	if s.sackOK && !s.inRecovery && !s.done &&
		s.sacked.totalBytes() >= int64(3*s.mss) {
		if s.sacked.max() <= s.recoverHi {
			s.resumeRecovery()
		} else {
			s.enterRecovery()
		}
	}
	s.trySend()
}

// resumeRecovery re-arms hole-driven retransmission for losses belonging
// to an episode that already backed off — no additional decrease.
func (s *Sender) resumeRecovery() {
	s.recover = s.recoverHi
	if s.recover > s.repairHi {
		s.repairHi = s.recover
	}
	s.inRecovery = true
	s.highRxt = s.sndUna
	s.emit(telemetry.EvTCPRecoveryEnter, "resume", s.recover, s.Cwnd)
	s.setPhase(telemetry.PhaseRecovery)
	s.resetRTO()
}

func (s *Sender) handleNewAck(ack int64) {
	acked := ack - s.sndUna
	s.stats.BytesAcked += units.ByteSize(acked)
	// RFC 2861 congestion-window validation: only grow cwnd when it was
	// actually the binding constraint since the last ACK. Without this,
	// a receive-window- or pace-limited sender inflates cwnd arbitrarily
	// and then releases huge line-rate bursts whenever the advertised
	// window jumps. Like Linux, a slow-start flow with more than half a
	// window in flight still counts as cwnd-limited, so pacing micro-
	// gaps do not stall the exponential ramp.
	inflightNow := s.sndNxt - s.sndUna
	cwndLimited := s.wasCwndLimited ||
		(s.Cwnd < s.ssthresh && float64(2*inflightNow) > s.Cwnd)
	s.wasCwndLimited = false

	var rtt time.Duration
	if s.rttValid && ack >= s.rttSeq {
		rtt = s.now().Sub(s.rttSentAt)
		s.updateRTT(rtt)
		s.rttValid = false
	}

	s.sndUna = ack
	if s.sackOK {
		s.sacked.trimBelow(ack)
	}

	if s.inRecovery {
		if ack >= s.recover {
			// Full recovery: deflate to ssthresh and resume avoidance.
			s.inRecovery = false
			s.dupAcks = 0
			s.Cwnd = s.ssthresh
			s.emit(telemetry.EvTCPRecoveryExit, "", ack, s.Cwnd)
			s.emit(telemetry.EvTCPCwnd, "recovery-exit", ack, s.Cwnd)
		} else if !s.sackOK {
			// NewReno partial ACK: the next segment after ack is also
			// lost. (With SACK, hole-driven retransmission in trySend
			// covers this.)
			s.retransmitSegment(s.sndUna)
			s.Cwnd -= float64(acked)
			if s.Cwnd < float64(s.mss) {
				s.Cwnd = float64(s.mss)
			}
			s.Cwnd += float64(s.mss)
			s.resetRTO()
			return
		} else {
			// SACK recovery partial ACK. If cwnd is below ssthresh the
			// episode began with an RTO (loss state): slow-start the
			// window back up while holes are repaired, as real stacks
			// do — otherwise a collapsed window repairs a mass-loss
			// backlog at a crawl.
			if s.Cwnd < s.ssthresh {
				inc := float64(acked)
				if inc > float64(2*s.mss) {
					inc = float64(2 * s.mss)
				}
				s.Cwnd += inc
			}
			s.resetRTO()
			return
		}
	} else {
		s.dupAcks = 0
		switch {
		case !cwndLimited:
			// Validation: no growth while rwnd- or app-limited.
		case s.Cwnd < s.ssthresh:
			// Slow start: one MSS per ACK (bounded by bytes acked with
			// appropriate byte counting).
			inc := float64(acked)
			if inc > float64(2*s.mss) {
				inc = float64(2 * s.mss)
			}
			s.Cwnd += inc
		default:
			s.cc.OnAck(s, int(acked), rtt)
		}
	}

	if units.ByteSize(s.Cwnd) > s.stats.PeakCwnd {
		s.stats.PeakCwnd = units.ByteSize(s.Cwnd)
	}

	if s.total >= 0 && s.sndUna >= s.total {
		s.complete(true)
		return
	}
	s.resetRTO()
}

func (s *Sender) handleDupAck() {
	s.dupAcks++
	if s.inRecovery {
		if !s.sackOK {
			// NewReno window inflation for each additional dup ack.
			// SACK mode uses pipe accounting instead.
			s.Cwnd += float64(s.mss)
		}
		return
	}
	if s.dupAcks == 3 {
		if s.sndUna < s.recoverHi {
			s.resumeRecovery()
		} else {
			s.enterRecovery()
		}
	}
}

func (s *Sender) enterRecovery() {
	s.stats.LossEvents++
	s.ssthresh = s.cc.Backoff(s)
	if s.ssthresh < float64(2*s.mss) {
		s.ssthresh = float64(2 * s.mss)
	}
	s.recover = s.sndNxt
	if s.recover > s.recoverHi {
		s.recoverHi = s.recover
	}
	if s.recover > s.repairHi {
		s.repairHi = s.recover
	}
	s.inRecovery = true
	s.emit(telemetry.EvTCPRecoveryEnter, "fast-retransmit", s.recover, s.ssthresh)
	s.setPhase(telemetry.PhaseRecovery)
	s.emit(telemetry.EvTCPCwnd, "backoff", s.sndUna, s.ssthresh)
	if s.sackOK {
		// Pipe accounting governs transmission; no NewReno inflation.
		s.Cwnd = s.ssthresh
		s.retransmitSegment(s.sndUna)
		s.highRxt = s.sndUna + int64(s.mss)
	} else {
		s.Cwnd = s.ssthresh + float64(3*s.mss)
		s.retransmitSegment(s.sndUna)
	}
	s.resetRTO()
}

// --- transmission ---

func (s *Sender) segmentLen(seq int64) int {
	if s.total < 0 {
		return s.mss
	}
	remaining := s.total - seq
	if remaining <= 0 {
		return 0
	}
	if remaining < int64(s.mss) {
		return int(remaining)
	}
	return s.mss
}

func (s *Sender) sendSegment(seq int64, isRetransmit bool) {
	length := s.segmentLen(seq)
	if length == 0 {
		return
	}
	if isRetransmit {
		s.stats.Retransmits++
		s.emit(telemetry.EvTCPRetransmit, "", seq, float64(length))
		// Karn's algorithm: a retransmitted timing sample is invalid.
		if s.rttValid && seq < s.rttSeq {
			s.rttValid = false
		}
	} else if !s.rttValid {
		s.rttSeq = seq + int64(length)
		s.rttSentAt = s.now()
		s.rttValid = true
	}
	p := s.host.NewPacket()
	p.Flow = s.flow
	p.Size = HeaderSize + units.ByteSize(length)
	p.Flags = netsim.FlagACK
	p.Seq = seq
	s.host.Send(p)
}

func (s *Sender) retransmitSegment(seq int64) {
	s.sendSegment(seq, true)
}

// maxBurstSegments bounds how many segments one ACK (or timer event) may
// release, approximating the burst mitigation real stacks get from TCP
// small queues and pacing. Without it, window jumps flood the local NIC
// queue — self-inflicted loss no real sender exhibits.
const maxBurstSegments = 10

// tsqBytes is the TCP-small-queues budget: a sender stops handing
// segments to its NIC once the local egress queue holds this much.
// Without it, a sender whose NIC rate equals the path rate buffers its
// whole window locally — hundreds of milliseconds of self-inflicted
// queueing that inflates RTT and runs the receive-buffer autotuning away.
const tsqBytes units.ByteSize = 256 * units.KB

// tsqAllows defers transmission while the local NIC queue is over the
// TSQ budget, scheduling a resume when it should have drained.
func (s *Sender) tsqAllows() bool {
	out := s.host.RouteTo(s.flow.Dst)
	if out == nil {
		return true
	}
	q := out.QueueBytes()
	if q <= tsqBytes {
		return true
	}
	if !s.tsqTimer.Pending() {
		wait := out.Rate().Serialize(q - tsqBytes)
		if wait < time.Microsecond {
			wait = time.Microsecond
		}
		s.tsqTimer = s.sched().AfterCall(tagSender, wait, trySendCall, s, nil)
	}
	return false
}

// pipe estimates bytes actually in flight: outstanding minus what the
// receiver has selectively acknowledged (RFC 6675's pipe, simplified).
func (s *Sender) pipe() int64 {
	p := s.sndNxt - s.sndUna - s.sacked.totalBytes()
	if p < 0 {
		p = 0
	}
	return p
}

// sendHoleRetransmits retransmits SACK-identified holes while the pipe
// has room — the recovery behaviour that repairs many losses per RTT
// instead of NewReno's one. The scan starts at highRxt, so each hole
// goes once per episode and repaired holes are never rescanned.
func (s *Sender) sendHoleRetransmits(budget *int) {
	limit := min64(int64(s.Cwnd), s.rwnd)
	for *budget < maxBurstSegments {
		cursor := max(s.sndUna, s.highRxt)
		hole, ok := s.sacked.nextHole(cursor)
		if !ok {
			return
		}
		// Align the hole to the sending segmentation (all segments are
		// MSS-sized from sequence zero).
		hole -= hole % int64(s.mss)
		if hole < cursor {
			hole = cursor
		}
		if s.sacked.covers(hole) {
			s.highRxt = hole + int64(s.mss)
			continue
		}
		if s.pipe()+int64(s.mss) > limit {
			return
		}
		if !s.paceAllows(s.segmentLen(hole)) {
			return
		}
		s.retransmitSegment(hole)
		s.highRxt = hole + int64(s.mss)
		*budget++
	}
}

func (s *Sender) trySend() {
	if !s.established || s.done {
		return
	}
	burst := 0
	if s.inRecovery && s.sackOK {
		s.sendHoleRetransmits(&burst)
	}
	for {
		if burst >= maxBurstSegments {
			s.Limited.Burst++
			break
		}
		length := s.segmentLen(s.sndNxt)
		if length == 0 {
			s.Limited.Data++
			s.setPhase(s.phaseFor(telemetry.PhaseAppLimited))
			break
		}
		inflight := s.sndNxt - s.sndUna
		if s.sackOK {
			inflight = s.pipe()
		}
		limit := min64(int64(s.Cwnd), s.rwnd)
		// Always allow one segment when nothing is in flight, so a
		// zero/tiny window cannot deadlock the connection (the receiver
		// buffers opportunistically, as real stacks' persist timers
		// eventually would).
		if inflight > 0 && inflight+int64(length) > limit {
			if int64(s.Cwnd) <= s.rwnd {
				s.wasCwndLimited = true
				s.Limited.Cwnd++
				if s.Cwnd < s.ssthresh {
					s.setPhase(s.phaseFor(telemetry.PhaseSlowStart))
				} else {
					s.setPhase(s.phaseFor(telemetry.PhaseCwndLimited))
				}
			} else {
				s.Limited.Rwnd++
				s.setPhase(s.phaseFor(telemetry.PhaseRwndLimited))
			}
			break
		}
		// TSQ after the window check, so cwnd-limited detection (and
		// with it RFC 2861 growth) still sees the true constraint.
		if !s.tsqAllows() {
			s.Limited.Tsq++
			s.setPhase(s.phaseFor(telemetry.PhaseQueueLimited))
			break
		}
		// Pacing last: tokens are only consumed for segments that all
		// other gates have already admitted.
		if !s.paceAllows(length) {
			s.Limited.Pace++
			s.setPhase(s.phaseFor(telemetry.PhaseQueueLimited))
			break
		}
		isRetx := s.sndNxt < s.maxSent
		s.sendSegment(s.sndNxt, isRetx)
		s.sndNxt += int64(length)
		if s.sndNxt > s.maxSent {
			s.maxSent = s.sndNxt
		}
		burst++
	}
	if s.sndNxt > s.sndUna && !s.rtoTimer.Pending() {
		s.armRTO()
	}
}

// paceAllows implements sender pacing as a leaky-bucket schedule: each
// admitted segment advances the earliest-departure time by its
// serialization time at the pace rate, with idle credit capped at a
// 16-segment burst. When pacing blocks, a timer resumes trySend exactly
// at the next departure slot.
func (s *Sender) paceAllows(length int) bool {
	rate := s.opts.PaceRate
	if rate <= 0 {
		return true
	}
	now := s.now()
	if now < s.paceNext {
		if !s.paceTimer.Pending() {
			s.paceTimer = s.sched().AtCall(tagSender, s.paceNext, trySendCall, s, nil)
		}
		return false
	}
	// Forgive idle time beyond a 16-segment burst allowance, so a long
	// pause cannot bank an unbounded line-rate burst.
	burst := rate.Serialize(units.ByteSize(16 * (s.mss + int(HeaderSize))))
	base := s.paceNext
	if floor := now.Add(-burst); base < floor {
		base = floor
	}
	s.paceNext = base.Add(rate.Serialize(units.ByteSize(length) + HeaderSize))
	return true
}

// --- timers & RTT ---

func (s *Sender) updateRTT(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < MinRTO {
		s.rto = MinRTO
	}
	if s.rto > MaxRTO {
		s.rto = MaxRTO
	}
	if s.rttHist != nil {
		s.rttHist.Observe(sample.Seconds())
	}
}

// trySendCall / onRTOCall are the static forms of the per-ACK timer
// callbacks: pacing, TSQ resume, and RTO (re)arming happen on nearly
// every ACK, so scheduling them must not allocate a method-value
// closure each time (see sim.CallFunc).
//
//dmz:hotpath
func trySendCall(a, _ any) { a.(*Sender).trySend() }

//dmz:hotpath
func onRTOCall(a, _ any) { a.(*Sender).onRTO() }

func (s *Sender) armRTO() {
	s.rtoTimer = s.sched().AfterCall(tagSender, s.rto, onRTOCall, s, nil)
}

func (s *Sender) resetRTO() {
	s.rtoTimer.Stop()
	if s.sndNxt > s.sndUna {
		s.armRTO()
	}
}

func (s *Sender) onRTO() {
	if s.done || s.sndUna >= s.sndNxt {
		return
	}
	s.stats.RTOs++
	s.emit(telemetry.EvTCPRTO, "", s.sndUna, s.rto.Seconds())
	if s.sndNxt > s.repairHi {
		s.repairHi = s.sndNxt
	}
	s.setPhase(telemetry.PhaseRecovery)
	s.ssthresh = s.Cwnd / 2
	if s.ssthresh < float64(2*s.mss) {
		s.ssthresh = float64(2 * s.mss)
	}
	s.Cwnd = float64(s.mss)
	s.inRecovery = false
	s.dupAcks = 0
	s.rttValid = false
	s.emit(telemetry.EvTCPCwnd, "rto-collapse", s.sndUna, s.Cwnd)
	// The scoreboard may be stale (reneging is permitted); discard it.
	s.sacked.clear()
	s.highRxt = 0
	// Go-back-N: restart from the first unacknowledged byte.
	s.sndNxt = s.sndUna
	s.rto *= 2
	if s.rto > MaxRTO {
		s.rto = MaxRTO
	}
	s.trySend()
}

func (s *Sender) complete(success bool) {
	s.done = true
	reason := "abort"
	if success {
		reason = "success"
	}
	s.emitLifecycle(telemetry.EvTCPDone, reason, int64(s.stats.BytesAcked), 0)
	s.stats.End = s.now()
	s.stats.Done = success
	s.stats.SRTT = s.srtt
	s.stats.WScaleOK = s.scalingOn
	s.rtoTimer.Stop()
	s.synTimer.Stop()
	s.paceTimer.Stop()
	s.tsqTimer.Stop()
	s.host.Unbind(netsim.ProtoTCP, s.flow.SrcPort)
	if s.onDone != nil {
		st := s.stats
		s.onDone(&st)
	}
}

// Abort ends the connection immediately (a fixed-duration throughput test
// finishing, or an operator kill), finalizing statistics with Done=false.
func (s *Sender) Abort() {
	if s.done {
		return
	}
	s.complete(false)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
