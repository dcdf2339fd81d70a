package netsim

import (
	"testing"
	"testing/quick"
)

func TestFlagsHasAndString(t *testing.T) {
	f := FlagSYN | FlagACK
	if !f.Has(FlagSYN) || !f.Has(FlagACK) || f.Has(FlagFIN) {
		t.Error("Has wrong")
	}
	if !f.Has(FlagSYN | FlagACK) {
		t.Error("Has should require all flags")
	}
	if got := f.String(); got != "SA" {
		t.Errorf("String = %q, want SA", got)
	}
	if got := Flags(0).String(); got != "-" {
		t.Errorf("zero flags String = %q, want -", got)
	}
	if got := (FlagFIN | FlagRST | FlagPSH).String(); got != "FRP" {
		t.Errorf("String = %q, want FRP", got)
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: "a", Dst: "b", SrcPort: 1000, DstPort: 2811, Proto: ProtoTCP}
	r := k.Reverse()
	if r.Src != "b" || r.Dst != "a" || r.SrcPort != 2811 || r.DstPort != 1000 || r.Proto != ProtoTCP {
		t.Errorf("Reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Error("double Reverse should be identity")
	}
}

func TestFlowKeyReverseInvolution(t *testing.T) {
	f := func(src, dst string, sp, dp uint16, proto bool) bool {
		p := ProtoTCP
		if proto {
			p = ProtoUDP
		}
		k := FlowKey{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: p}
		return k.Reverse().Reverse() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFlowKeyCanonical pins the session key firewalls and IDSes share:
// both directions of a flow have one canonical key, canonicalizing twice
// changes nothing, and the result is one of the two directions.
func TestFlowKeyCanonical(t *testing.T) {
	f := func(src, dst string, sp, dp uint16, proto bool) bool {
		p := ProtoTCP
		if proto {
			p = ProtoUDP
		}
		k := FlowKey{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: p}
		c := k.Canonical()
		return c == k.Reverse().Canonical() && c.Canonical() == c && (c == k || c == k.Reverse())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, k := range []FlowKey{
		{Src: "a", Dst: "a", SrcPort: 7, DstPort: 7},
		{Src: "a", Dst: "a", SrcPort: 9, DstPort: 7},
		{Src: "server", Dst: "client", SrcPort: 5001, DstPort: 50000, Proto: ProtoTCP},
	} {
		if c := k.Canonical(); c != k.Reverse().Canonical() || c.Canonical() != c {
			t.Errorf("Canonical(%v) = %v, of the reverse %v", k, c, k.Reverse().Canonical())
		}
	}
	if got := (FlowKey{Src: "server", Dst: "client", SrcPort: 5001, DstPort: 50000}).Canonical(); got.Src != "client" {
		t.Errorf("Canonical picks %v, want the direction whose source sorts first", got)
	}
}

func TestProtoString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" {
		t.Error("proto strings wrong")
	}
	if Proto(9).String() != "proto(9)" {
		t.Error("unknown proto string wrong")
	}
}

func TestPacketIsTCPData(t *testing.T) {
	p := &Packet{Flow: FlowKey{Proto: ProtoTCP}, Size: 1500}
	if !p.IsTCPData(40) {
		t.Error("1500B TCP packet should be data")
	}
	ack := &Packet{Flow: FlowKey{Proto: ProtoTCP}, Size: 40}
	if ack.IsTCPData(40) {
		t.Error("bare ACK should not be data")
	}
	udp := &Packet{Flow: FlowKey{Proto: ProtoUDP}, Size: 1500}
	if udp.IsTCPData(40) {
		t.Error("UDP packet should not be TCP data")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{
		Flow:  FlowKey{Src: "dtn1", Dst: "dtn2", SrcPort: 50000, DstPort: 2811, Proto: ProtoTCP},
		Flags: FlagSYN,
		Seq:   7,
		Size:  40,
	}
	want := "[tcp dtn1:50000>dtn2:2811 S seq=7 ack=0 40B]"
	if got := p.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
