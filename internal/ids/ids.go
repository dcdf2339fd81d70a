// Package ids models a passive intrusion detection system.
//
// The Science DMZ security pattern (§3.4) pairs router ACLs with an IDS
// watching a passive tap: the IDS sees everything (including traffic an
// ACL permits) without sitting in the forwarding path, so it can never
// cause loss. §7.3 extends this: an SDN controller can send connection
// setup through the IDS, and once the IDS verifies the flow, install a
// bypass so the bulk of the transfer skips inspection entirely.
package ids

import (
	"sort"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/units"
)

// FlowRecord accumulates per-flow observations from the tap. Flows are
// keyed by their canonical (direction-independent) FlowKey.
type FlowRecord struct {
	Key         netsim.FlowKey
	Packets     uint64
	Bytes       units.ByteSize
	First, Last sim.Time
	SynSeen     bool
	FinSeen     bool
	RstSeen     bool
	Alerted     bool
}

// Alert is a detection event.
type Alert struct {
	At     sim.Time
	Flow   netsim.FlowKey
	Rule   string
	Detail string
}

// Signature inspects each packet in the context of its flow record and
// returns a non-empty detail string to raise an alert.
type Signature struct {
	Name  string
	Match func(rec *FlowRecord, pkt *netsim.Packet) string
}

// IDS is a passive analyzer fed by port taps.
type IDS struct {
	Name       string
	Signatures []Signature

	// Alerts collects every detection in order.
	Alerts []Alert

	// OnVerified, when set, is invoked once per flow when the flow
	// passes VerifyAfter packets without any alert — the hook the SDN
	// firewall-bypass application uses.
	OnVerified  func(rec *FlowRecord)
	VerifyAfter uint64

	net      *netsim.Network
	flows    map[netsim.FlowKey]*FlowRecord
	verified map[netsim.FlowKey]bool
}

// New creates an IDS. VerifyAfter defaults to 10 packets.
func New(net *netsim.Network, name string) *IDS {
	return &IDS{
		Name:        name,
		VerifyAfter: 10,
		net:         net,
		flows:       make(map[netsim.FlowKey]*FlowRecord),
		verified:    make(map[netsim.FlowKey]bool),
	}
}

// Watch attaches the IDS to a port's tap. One IDS may watch any number
// of ports (a SPAN session across the DMZ switch). Under sharded
// execution every watched port must live on the same shard — IDS flow
// state is single-threaded, like the physical appliance it models, and
// a SPAN session never crosses the facility boundary anyway.
func (s *IDS) Watch(p *netsim.Port) {
	p.AddTap(func(pkt *netsim.Packet, d netsim.Dir) {
		if d == netsim.DirRx {
			s.observe(pkt, p.Now())
		}
	})
}

func (s *IDS) observe(pkt *netsim.Packet, now sim.Time) {
	key := pkt.Flow.Canonical()
	rec, ok := s.flows[key]
	if !ok {
		rec = &FlowRecord{Key: key, First: now}
		s.flows[key] = rec
	}
	rec.Packets++
	rec.Bytes += pkt.Size
	rec.Last = now
	if pkt.Flags.Has(netsim.FlagSYN) {
		rec.SynSeen = true
	}
	if pkt.Flags.Has(netsim.FlagFIN) {
		rec.FinSeen = true
	}
	if pkt.Flags.Has(netsim.FlagRST) {
		rec.RstSeen = true
	}

	for _, sig := range s.Signatures {
		if detail := sig.Match(rec, pkt); detail != "" {
			rec.Alerted = true
			s.Alerts = append(s.Alerts, Alert{
				At:     now,
				Flow:   pkt.Flow,
				Rule:   sig.Name,
				Detail: detail,
			})
		}
	}

	if s.OnVerified != nil && !rec.Alerted && !s.verified[key] && rec.Packets >= s.VerifyAfter {
		s.verified[key] = true
		s.OnVerified(rec)
	}
}

// Flow returns the record for a flow (either direction), or nil.
func (s *IDS) Flow(k netsim.FlowKey) *FlowRecord {
	return s.flows[k.Canonical()]
}

// Verified reports whether the flow passed verification without alerts.
func (s *IDS) Verified(k netsim.FlowKey) bool {
	return s.verified[k.Canonical()]
}

// Flows returns all flow records, largest first — the "top talkers" view
// of a flow-analysis tool.
func (s *IDS) Flows() []*FlowRecord {
	out := make([]*FlowRecord, 0, len(s.flows))
	for _, rec := range s.flows {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Key.String() < out[j].Key.String()
	})
	return out
}

// PortScanSignature alerts when one source host has touched more than
// maxPorts distinct destination ports. It is stateful across flows, so
// create one per IDS.
func PortScanSignature(maxPorts int) Signature {
	seen := make(map[string]map[uint16]bool)
	return Signature{
		Name: "port-scan",
		Match: func(_ *FlowRecord, pkt *netsim.Packet) string {
			if !pkt.Flags.Has(netsim.FlagSYN) || pkt.Flags.Has(netsim.FlagACK) {
				return ""
			}
			m := seen[pkt.Flow.Src]
			if m == nil {
				m = make(map[uint16]bool)
				seen[pkt.Flow.Src] = m
			}
			m[pkt.Flow.DstPort] = true
			if len(m) == maxPorts+1 {
				return pkt.Flow.Src + " touched too many ports"
			}
			return ""
		},
	}
}

// RateAnomalySignature alerts when a flow's byte volume exceeds the
// budget within its first window — catching exfiltration-style bulk
// flows that are not on the expected data-transfer services. Flows to
// the allowed ports are exempt.
func RateAnomalySignature(budget units.ByteSize, allowed ...uint16) Signature {
	ok := make(map[uint16]bool, len(allowed))
	for _, p := range allowed {
		ok[p] = true
	}
	return Signature{
		Name: "rate-anomaly",
		Match: func(rec *FlowRecord, pkt *netsim.Packet) string {
			if ok[pkt.Flow.DstPort] || ok[pkt.Flow.SrcPort] || rec.Alerted {
				return ""
			}
			if rec.Bytes > budget {
				return pkt.Flow.String() + " moved " + rec.Bytes.String() + " on a non-transfer port"
			}
			return ""
		},
	}
}

// UnexpectedServiceSignature alerts on SYNs to ports outside the allowed
// set — the "limited application profile" of a DTN makes this list short
// (§3.2).
func UnexpectedServiceSignature(allowed ...uint16) Signature {
	ok := make(map[uint16]bool, len(allowed))
	for _, p := range allowed {
		ok[p] = true
	}
	return Signature{
		Name: "unexpected-service",
		Match: func(_ *FlowRecord, pkt *netsim.Packet) string {
			if pkt.Flags.Has(netsim.FlagSYN) && !pkt.Flags.Has(netsim.FlagACK) && !ok[pkt.Flow.DstPort] {
				return pkt.Flow.String() + " not an allowed service"
			}
			return ""
		},
	}
}
