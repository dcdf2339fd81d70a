package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/units"
)

// chain builds a -- d01 -- ... -- b with the given number of links and
// computes routes. Link i runs at (i%3+1) Gb/s with i+1 µs of delay, and
// only the middle link has a 1500-byte MTU, so no path fold reads a
// default.
func chain(count int) (*Network, []*Link) {
	n := New(1)
	var prev Node = n.NewHost("a")
	var links []*Link
	for i := 0; i < count; i++ {
		var next Node
		if i == count-1 {
			next = n.NewHost("b")
		} else {
			next = n.NewDevice(fmt.Sprintf("d%02d", i+1), DeviceConfig{})
		}
		mtu := 9000
		if i == count/2 {
			mtu = 1500
		}
		links = append(links, n.Connect(prev, next, LinkConfig{
			Rate:  units.BitRate(i%3+1) * units.Gbps,
			Delay: time.Duration(i+1) * time.Microsecond,
			MTU:   mtu,
		}))
		prev = next
	}
	n.ComputeRoutes()
	return n, links
}

// TestPathHelpersAgree pins the one route walk: Path, PathInfo,
// PathMTU, PathRTT and PathBottleneck either all report no path, or
// describe the same path, and the three scalar helpers allocate
// nothing.
func TestPathHelpersAgree(t *testing.T) {
	cases := []struct {
		name     string
		links    int                             // links in the chain
		edit     func(n *Network, built []*Link) // nil keeps the computed routes
		src, dst string
		hops     int // -1: no path
	}{
		{"routed", 4, nil, "a", "b", 4},
		{"no route at an intermediate device", 4, func(n *Network, _ []*Link) {
			n.Node("d02").SetRoute("b", nil)
		}, "a", "b", -1},
		{"unknown endpoint", 4, nil, "a", "ghost", -1},
		{"unknown source", 4, nil, "ghost", "b", -1},
		{"loop", 4, func(n *Network, built []*Link) {
			// d03 sends traffic for b back to d02, which sends it on to d03.
			n.Node("d03").SetRoute("b", built[2].B)
		}, "a", "b", -1},
		{"MaxHops hops", MaxHops, nil, "a", "b", MaxHops},
		{"MaxHops+1 hops", MaxHops + 1, nil, "a", "b", -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, built := chain(tc.links)
			if tc.edit != nil {
				tc.edit(n, built)
			}
			path, links := n.Path(tc.src, tc.dst), n.PathInfo(tc.src, tc.dst)
			mtu, rtt, bn := n.PathMTU(tc.src, tc.dst), n.PathRTT(tc.src, tc.dst), n.PathBottleneck(tc.src, tc.dst)
			if tc.hops < 0 {
				if path != nil || links != nil || mtu != 0 || rtt != 0 || bn != 0 {
					t.Fatalf("want no path; got Path %d names, PathInfo %d links, MTU %d, RTT %v, bottleneck %v",
						len(path), len(links), mtu, rtt, bn)
				}
			} else {
				if len(links) != tc.hops || len(path) != len(links)+1 {
					t.Fatalf("Path has %d names and PathInfo %d links, want %d and %d",
						len(path), len(links), tc.hops+1, tc.hops)
				}
				wantMTU, wantRTT, wantBN := 0, time.Duration(0), units.BitRate(0)
				for i, l := range links {
					if a, b := l.Ends(); !(a == path[i] && b == path[i+1]) && !(b == path[i] && a == path[i+1]) {
						t.Errorf("link %d joins %s and %s, want %s and %s", i, a, b, path[i], path[i+1])
					}
					if wantMTU == 0 || l.MTU < wantMTU {
						wantMTU = l.MTU
					}
					if wantBN == 0 || l.Rate < wantBN {
						wantBN = l.Rate
					}
					wantRTT += 2 * l.Delay
				}
				if mtu != wantMTU || rtt != wantRTT || bn != wantBN {
					t.Errorf("MTU %d, RTT %v, bottleneck %v; the links give %d, %v, %v",
						mtu, rtt, bn, wantMTU, wantRTT, wantBN)
				}
			}
			for _, h := range []struct {
				name string
				f    func()
			}{
				{"PathMTU", func() { n.PathMTU(tc.src, tc.dst) }},
				{"PathRTT", func() { n.PathRTT(tc.src, tc.dst) }},
				{"PathBottleneck", func() { n.PathBottleneck(tc.src, tc.dst) }},
			} {
				if allocs := testing.AllocsPerRun(20, h.f); allocs != 0 {
					t.Errorf("%s allocates %v objects per call, want 0", h.name, allocs)
				}
			}
		})
	}
}
