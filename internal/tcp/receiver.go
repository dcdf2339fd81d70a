package tcp

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/units"
)

// delayedAckTimeout matches common stack behaviour (~40 ms).
const delayedAckTimeout = 40 * time.Millisecond

// receiver is the per-connection receive state inside a Server: cumulative
// ACK generation, out-of-order buffering, window advertisement with
// optional RFC 1323 scaling, and Linux-style receive-buffer auto-tuning.
type receiver struct {
	srv  *Server
	flow netsim.FlowKey // client -> server direction

	established bool
	scalingOn   bool
	sackOn      bool
	myWScale    int

	rcvNxt    int64
	ooo       rangeSet // out-of-order data above rcvNxt
	rcvBuf    units.ByteSize
	delivered units.ByteSize

	segsSinceAck int
	delayedAck   sim.Timer

	// Auto-tuning state. rttEst starts from the handshake and is then
	// tracked continuously Linux-style: the time to receive one
	// buffer's worth of data approximates the current round-trip time,
	// including queueing delay. Clocking growth with a stale handshake
	// RTT wedges window-limited flows once bottleneck queues inflate
	// the real RTT.
	rttEst         time.Duration
	synAckSentAt   sim.Time
	lastGrow       sim.Time
	bytesSinceGrow units.ByteSize
	rttWindowStart sim.Time
	rttWindowBytes units.ByteSize
}

func newReceiver(srv *Server, flow netsim.FlowKey) *receiver {
	return &receiver{
		srv:    srv,
		flow:   flow,
		rcvBuf: srv.Opts.RcvBuf,
	}
}

func (r *receiver) net() *netsim.Network  { return r.srv.Host.Network() }
func (r *receiver) sched() *sim.Scheduler { return r.srv.Host.EventScheduler() }
func (r *receiver) now() sim.Time         { return r.sched().Now() }

// deliver is the per-connection segment handler on the server side,
// invoked through the Server.deliver dispatch.
//
//dmz:datapath
func (r *receiver) deliver(pkt *netsim.Packet) {
	switch {
	case pkt.Flags.Has(netsim.FlagSYN):
		r.handleSyn(pkt)
	case pkt.IsTCPData(HeaderSize):
		r.establish()
		r.handleData(pkt)
	default:
		// Pure ACK: handshake completion.
		r.establish()
	}
}

func (r *receiver) handleSyn(pkt *netsim.Packet) {
	if !r.established && r.rcvNxt == 0 && len(r.ooo.r) == 0 {
		// Window scaling requires the option on BOTH the SYN we received
		// (possibly stripped by a middlebox in transit) and our policy.
		r.scalingOn = r.srv.Opts.WindowScale && pkt.WScale != netsim.NoWScale
		if r.scalingOn {
			r.myWScale = DefaultWindowScale
		} else {
			r.myWScale = 0
		}
		r.sackOn = !r.srv.Opts.NoSACK && pkt.SackOK
	}
	ws := netsim.NoWScale
	if r.scalingOn {
		ws = r.myWScale
	}
	r.synAckSentAt = r.now()
	// The window field on the SYN-ACK is unscaled per RFC 1323 §2.2.
	p := r.srv.Host.NewPacket()
	p.Flow = r.flow.Reverse()
	p.Size = HeaderSize
	p.Flags = netsim.FlagSYN | netsim.FlagACK
	p.WScale = ws
	p.MSSOpt = pkt.MSSOpt
	p.SackOK = r.sackOn
	p.WindowRaw = int(min64(int64(r.rcvBuf), 65535))
	r.srv.Host.Send(p)
}

func (r *receiver) establish() {
	if r.established {
		return
	}
	r.established = true
	if r.synAckSentAt > 0 {
		r.rttEst = r.now().Sub(r.synAckSentAt)
	}
	r.lastGrow = r.now()
}

func (r *receiver) handleData(pkt *netsim.Packet) {
	payload := int64(pkt.Size - HeaderSize)
	seq := pkt.Seq
	end := seq + payload

	hadHole := len(r.ooo.r) > 0
	inOrder := false

	switch {
	case seq == r.rcvNxt:
		inOrder = true
		r.advance(end)
	case seq > r.rcvNxt:
		r.ooo.add(seq, end)
	default:
		// Wholly or partly old data (retransmission overlap); absorb any
		// new tail.
		if end > r.rcvNxt {
			r.advance(end)
			inOrder = true
		}
	}

	r.autotune(units.ByteSize(payload))

	// ACK policy: immediate ACK for out-of-order arrivals or while
	// filling a hole (so dupacks / recovery proceed quickly); otherwise
	// delayed ACK every second segment.
	if !inOrder || hadHole || r.srv.Opts.NoDelayedAck {
		r.sendAck()
		return
	}
	r.segsSinceAck++
	if r.segsSinceAck >= 2 {
		r.sendAck()
		return
	}
	if !r.delayedAck.Pending() {
		r.delayedAck = r.sched().AfterCall(tagReceiver, delayedAckTimeout, delayedAckCall, r, nil)
	}
}

// advance moves rcvNxt to at least end, then absorbs any out-of-order
// ranges that became contiguous, delivering all advanced bytes.
func (r *receiver) advance(end int64) {
	start := r.rcvNxt
	r.rcvNxt = r.ooo.absorb(max(end, r.rcvNxt))
	r.delivered += units.ByteSize(r.rcvNxt - start)
}

// autotune grows the receive buffer when the flow demonstrably fills a
// quarter of it within one RTT — a simplified Linux dynamic-right-sizing
// model. The demand threshold is deliberately below half a window:
// bottleneck queueing inflates the true RTT well beyond the handshake
// estimate this check is clocked by, and a window-limited flow must
// still be able to demonstrate demand under that inflation (otherwise it
// wedges at the initial 64 KiB forever). Without window scaling the
// advertised window is capped at 64 KiB no matter the buffer, so growth
// is pointless and skipped.
func (r *receiver) autotune(payload units.ByteSize) {
	if !r.srv.Opts.AutoTune || !r.scalingOn || r.rttEst <= 0 {
		return
	}
	r.measureRcvRTT(payload)
	r.bytesSinceGrow += payload
	if r.now().Sub(r.lastGrow) < r.rttEst {
		return
	}
	if r.bytesSinceGrow*4 >= r.rcvBuf {
		max := r.srv.Opts.MaxRcvBuf
		r.rcvBuf *= 2
		if r.rcvBuf > max {
			r.rcvBuf = max
		}
	}
	r.bytesSinceGrow = 0
	r.lastGrow = r.now()
}

// measureRcvRTT tracks the current round-trip time from the receive
// side: the time taken to receive one advertised window of data is
// approximately one RTT for a window-limited flow (the Linux
// tcp_rcv_rtt_measure approach).
func (r *receiver) measureRcvRTT(payload units.ByteSize) {
	if r.rttWindowStart == 0 {
		r.rttWindowStart = r.now()
	}
	r.rttWindowBytes += payload
	if r.rttWindowBytes < r.rcvBuf {
		return
	}
	sample := r.now().Sub(r.rttWindowStart)
	if sample > 0 {
		r.rttEst = (3*r.rttEst + sample) / 4
	}
	r.rttWindowStart = r.now()
	r.rttWindowBytes = 0
}

// delayedAckCall is the static delayed-ACK timer callback (closure-free
// scheduling; see sim.CallFunc).
//
//dmz:hotpath
var delayedAckCall sim.CallFunc = func(a, _ any) { a.(*receiver).sendAck() }

func (r *receiver) sendAck() {
	r.delayedAck.Stop()
	r.segsSinceAck = 0

	wnd := int64(r.rcvBuf) - r.ooo.totalBytes()
	if wnd < 0 {
		wnd = 0
	}
	var raw int64
	if r.scalingOn {
		raw = wnd >> uint(r.myWScale)
	} else {
		raw = wnd
	}
	if raw > 65535 {
		raw = 65535
	}
	p := r.srv.Host.NewPacket()
	p.Flow = r.flow.Reverse()
	p.Size = HeaderSize
	p.Flags = netsim.FlagACK
	p.Ack = r.rcvNxt
	p.WindowRaw = int(raw)
	if r.sackOn && len(r.ooo.r) > 0 {
		n := len(r.ooo.r)
		if n > 3 {
			n = 3
		}
		// Append into the pooled packet's Sack storage: the backing
		// array survives packet reuse, so steady-state SACK ACKs do not
		// allocate.
		for i := 0; i < n; i++ {
			p.Sack = append(p.Sack, [2]int64{r.ooo.r[i].start, r.ooo.r[i].end})
		}
	}
	r.srv.Host.Send(p)
}
