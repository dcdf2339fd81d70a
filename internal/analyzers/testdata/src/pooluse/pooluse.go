// Fixture for the pooluse analyzer: NewPacket/ReleasePacket pairing
// and holder allowlisting. The types mirror the netsim pool API.
package pooluse

// Packet mirrors netsim.Packet.
type Packet struct{ pooled bool }

// Network mirrors the pool owner: the free-list itself is of course
// allowed to hold packets.
//
//dmzvet:holder
type Network struct{ free []*Packet }

func (n *Network) NewPacket() *Packet {
	if k := len(n.free); k > 0 {
		p := n.free[k-1]
		n.free = n.free[:k-1]
		return p
	}
	return &Packet{}
}

func (n *Network) ReleasePacket(p *Packet) { n.free = append(n.free, p) }

// stash is NOT an audited holder: packets stored here hide from the
// conservation audit.
type stash struct {
	pkt  *Packet
	q    []*Packet
	byID map[int]*Packet
}

// engine is an audited holder.
//
//dmzvet:holder
type engine struct {
	q []*Packet
}

func discard(n *Network) {
	n.NewPacket()     // want `result of NewPacket discarded`
	_ = n.NewPacket() // want `result of NewPacket discarded`
}

func storeField(n *Network, s *stash) {
	s.pkt = n.NewPacket() // want `\*Packet stored in field pkt of non-holder type stash`
}

func storeAppend(n *Network, s *stash) {
	p := n.NewPacket()
	s.q = append(s.q, p) // want `\*Packet stored in field q of non-holder type stash`
}

func storeMap(n *Network, s *stash) {
	s.byID[1] = n.NewPacket() // want `\*Packet stored in map field byID of non-holder type stash`
}

// storeHolder targets an audited holder: no diagnostic.
func storeHolder(n *Network, e *engine) {
	e.q = append(e.q, n.NewPacket())
}

// locals are fine: they stay visible to the straight-line rules.
func localUse(n *Network) {
	p := n.NewPacket()
	n.ReleasePacket(p)
}

func doubleRelease(n *Network, p *Packet) {
	n.ReleasePacket(p)
	n.ReleasePacket(p) // want `ReleasePacket\(p\) reachable twice on a straight-line path`
}

func releaseThenBranch(n *Network, p *Packet, cond bool) {
	n.ReleasePacket(p)
	if cond {
		n.ReleasePacket(p) // want `reachable twice on a straight-line path`
	}
}

// branchRelease releases on exclusive paths: no diagnostic.
func branchRelease(n *Network, p *Packet, cond bool) {
	if cond {
		n.ReleasePacket(p)
	} else {
		n.ReleasePacket(p)
	}
}

// reassigned gets a fresh packet between releases: no diagnostic.
func reassigned(n *Network) {
	p := n.NewPacket()
	n.ReleasePacket(p)
	p = n.NewPacket()
	n.ReleasePacket(p)
}

// Cross-shard rings park in-flight packets between barrier drains; the
// parked packets stay on the conservation ledger (it counts each ring's
// length), so ring types are audited holders. An unmarked ring is a
// leak the audit cannot see.

type ringEntry struct{ pkt *Packet }

// crossRing is the audited shape (mirrors netsim.Ring).
//
//dmzvet:holder
type crossRing struct{ buf []ringEntry }

func (r *crossRing) push(n *Network) {
	r.buf = append(r.buf, ringEntry{pkt: n.NewPacket()})
}

// stashRing is NOT audited: parking packets here hides them.
type stashRing struct{ buf []*Packet }

func (r *stashRing) push(n *Network) {
	p := n.NewPacket()
	r.buf = append(r.buf, p) // want `\*Packet stored in field buf of non-holder type stashRing`
}
