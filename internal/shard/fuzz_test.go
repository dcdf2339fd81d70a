package shard

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/units"
)

// FuzzPartition feeds arbitrary topologies to the partitioner and checks
// its contract: it never panics, every plan covers every node in exactly
// one domain with self-consistent cuts, a plan with cuts has strictly
// positive lookahead, and a cut-free plan is one domain holding every
// node.
//
// Input encoding: byte 0 picks the node count (1..8, alternating hosts
// and switches); each following 4-byte group (a, b, delay, flags) adds a
// link between nodes a%n and b%n with delay*50µs of propagation delay —
// zero-delay links included, since those must never become cuts — and
// flags bit 0 = MarkCut, bit 1 = MarkNoCut. Duplicate links, self-loops
// (skipped), disconnected nodes, and hint/veto conflicts are all in play.
func FuzzPartition(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0, 1, 20, 0})                           // one plain ms-scale link
	f.Add([]byte{2, 0, 1, 0, 1})                            // marked but zero-delay: hint unusable
	f.Add([]byte{4, 0, 1, 1, 0, 1, 2, 100, 1, 2, 3, 1, 0})  // hinted WAN between short edges
	f.Add([]byte{4, 0, 1, 40, 3, 1, 2, 40, 0, 2, 3, 40, 0}) // cut hint vetoed on the same link
	f.Add([]byte{6, 0, 1, 20, 0, 2, 3, 20, 0, 4, 5, 20, 0}) // three disconnected pairs
	f.Add([]byte{3, 0, 1, 30, 0, 1, 2, 30, 0, 0, 2, 30, 0}) // cycle: cuts that do not separate
	f.Add([]byte{5, 0, 1, 1, 0, 1, 2, 1, 0, 2, 3, 200, 1, 3, 4, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nn := 1 + int(data[0])%8
		n := runCtx(t, 1).Adopt("fuzz", netsim.New(1))
		nodes := make([]netsim.Node, nn)
		for i := 0; i < nn; i++ {
			name := string(rune('a' + i))
			if i%2 == 0 {
				nodes[i] = n.NewHost(name)
			} else {
				nodes[i] = n.NewDevice(name, netsim.DeviceConfig{})
			}
		}
		for i := 1; i+3 < len(data); i += 4 {
			a, b := int(data[i])%nn, int(data[i+1])%nn
			if a == b {
				continue
			}
			l := n.Connect(nodes[a], nodes[b], netsim.LinkConfig{
				Rate:  10 * units.Gbps,
				Delay: time.Duration(data[i+2]) * 50 * time.Microsecond,
			})
			if data[i+3]&1 != 0 {
				l.MarkCut()
			}
			if data[i+3]&2 != 0 {
				l.MarkNoCut()
			}
		}

		plan := n.Partition()
		if len(plan.Cuts) > 0 && plan.Lookahead <= 0 {
			t.Fatalf("plan with %d cuts has non-positive lookahead %v", len(plan.Cuts), plan.Lookahead)
		}
		if len(plan.Cuts) == 0 && (len(plan.Domains) != 1 || len(plan.Domains[0]) != len(n.NodeNames()) || plan.Lookahead != 0) {
			t.Fatalf("cut-free plan has domains %v and lookahead %v, want one domain of every node and none",
				plan.Domains, plan.Lookahead)
		}

		// Coverage: every node in exactly one domain, no strays.
		seen := make(map[string]int)
		for di, dom := range plan.Domains {
			for _, name := range dom {
				if prev, dup := seen[name]; dup {
					t.Fatalf("node %q in domains %d and %d", name, prev, di)
				}
				seen[name] = di
			}
		}
		for _, name := range n.NodeNames() {
			if _, ok := seen[name]; !ok {
				t.Fatalf("node %q missing from every domain", name)
			}
			delete(seen, name)
		}
		for name := range seen {
			t.Fatalf("domain member %q is not a network node", name)
		}

		// Cut self-consistency: indices point at the real link list, cut
		// links are cuttable with delay >= lookahead, and the recorded
		// domain ends agree with the domain layout.
		links := n.Links()
		for _, c := range plan.Cuts {
			if c.Index < 0 || c.Index >= len(links) || links[c.Index] != c.Link {
				t.Fatalf("cut index %d does not identify its link", c.Index)
			}
			if !c.Link.Cuttable() {
				t.Fatalf("cut %d is not cuttable", c.Index)
			}
			if c.Link.Delay < plan.Lookahead {
				t.Fatalf("cut %d delay %v below lookahead %v", c.Index, c.Link.Delay, plan.Lookahead)
			}
			a, b := c.Link.Ends()
			if domainOf(plan, a) != c.DomA || domainOf(plan, b) != c.DomB {
				t.Fatalf("cut %d records domains (%d,%d), layout says (%d,%d)",
					c.Index, c.DomA, c.DomB, domainOf(plan, a), domainOf(plan, b))
			}
		}
	})
}

// domainOf returns the index of the plan domain containing the named
// node, or -1 when the node is unknown.
func domainOf(p *netsim.Plan, name string) int {
	for i, dom := range p.Domains {
		for _, n := range dom {
			if n == name {
				return i
			}
		}
	}
	return -1
}
