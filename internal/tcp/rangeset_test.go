package tcp

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/units"
)

func TestRangeSetAddMerge(t *testing.T) {
	var s rangeSet
	s.add(10, 20)
	s.add(30, 40)
	if s.totalBytes() != 20 || len(s.r) != 2 {
		t.Fatalf("set = %+v", s)
	}
	// Bridge the gap.
	s.add(20, 30)
	if s.totalBytes() != 30 || len(s.r) != 1 {
		t.Fatalf("after merge = %+v", s)
	}
	// Overlapping add is idempotent in coverage.
	s.add(5, 35)
	if s.totalBytes() != 35 || s.max() != 40 {
		t.Fatalf("after overlap = %+v", s)
	}
}

func TestRangeSetEmptyAndDegenerate(t *testing.T) {
	var s rangeSet
	s.add(10, 10) // empty range ignored
	s.add(10, 5)  // inverted ignored
	if s.totalBytes() != 0 || s.max() != 0 {
		t.Fatal("degenerate adds should be ignored")
	}
	if _, ok := s.nextHole(0); ok {
		t.Fatal("empty set has no holes")
	}
	if s.covers(0) {
		t.Fatal("empty set covers nothing")
	}
}

func TestRangeSetTrimBelow(t *testing.T) {
	var s rangeSet
	s.add(10, 20)
	s.add(30, 40)
	s.trimBelow(15)
	if s.totalBytes() != 15 {
		t.Fatalf("after trim = %+v", s)
	}
	s.trimBelow(100)
	if s.totalBytes() != 0 {
		t.Fatal("trim past end should empty the set")
	}
}

func TestRangeSetHoles(t *testing.T) {
	var s rangeSet
	s.add(10, 20)
	s.add(30, 40)
	h, ok := s.nextHole(0)
	if !ok || h != 0 {
		t.Fatalf("first hole = %d,%v", h, ok)
	}
	h, ok = s.nextHole(10)
	if !ok || h != 20 {
		t.Fatalf("hole after 10 = %d,%v", h, ok)
	}
	h, ok = s.nextHole(25)
	if !ok || h != 25 {
		t.Fatalf("hole at 25 = %d,%v", h, ok)
	}
	if _, ok := s.nextHole(40); ok {
		t.Fatal("no hole at or past max")
	}
	if !s.covers(15) || s.covers(25) || s.covers(40) {
		t.Fatal("covers wrong")
	}
}

func TestRangeSetClear(t *testing.T) {
	var s rangeSet
	s.add(0, 100)
	s.clear()
	if s.totalBytes() != 0 || s.max() != 0 {
		t.Fatal("clear failed")
	}
}

func TestRangeSetPropertyTotalMatchesNaive(t *testing.T) {
	// Property: total coverage equals a brute-force bitmap of the same
	// adds, under arbitrary add/trim sequences.
	f := func(ops []uint16) bool {
		var s rangeSet
		covered := map[int64]bool{}
		lowWater := int64(0)
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := int64(ops[i]%200), int64(ops[i+1]%200)
			if i%6 == 4 {
				// Occasionally trim.
				if a > lowWater {
					lowWater = a
				}
				s.trimBelow(a)
				for k := range covered {
					if k < a {
						delete(covered, k)
					}
				}
				continue
			}
			if a > b {
				a, b = b, a
			}
			if a < lowWater {
				a = lowWater
			}
			s.add(a, b)
			for k := a; k < b; k++ {
				covered[k] = true
			}
		}
		if int64(len(covered)) != s.totalBytes() {
			return false
		}
		// Ranges must be sorted and disjoint.
		for i := 1; i < len(s.r); i++ {
			if s.r[i-1].end >= s.r[i].start {
				return false
			}
		}
		// covers agrees with the bitmap at a few probes.
		probes := []int64{0, 50, 100, 150, 199}
		for _, p := range probes {
			if s.covers(p) != covered[p] {
				return false
			}
		}
		// nextHole returns uncovered positions.
		var keys []int
		for k := range covered {
			keys = append(keys, int(k))
		}
		sort.Ints(keys)
		if h, ok := s.nextHole(0); ok && covered[h] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- SACK behaviour -------------------------------------------------------

func TestSACKNegotiated(t *testing.T) {
	n, c, s := path(t, 1, units.Gbps, time.Millisecond, nil, 1500)
	srv := NewServer(s, 5001, Tuned())
	conn := Dial(c, srv, 100*units.KB, Tuned(), nil)
	n.Run()
	if !conn.sackOK {
		t.Error("SACK should negotiate between tuned endpoints")
	}
	// NoSACK on either side disables it.
	off := Tuned()
	off.NoSACK = true
	srv2 := NewServer(s, 5002, Tuned())
	conn2 := Dial(c, srv2, 10*units.KB, off, nil)
	n.Run()
	if conn2.sackOK {
		t.Error("NoSACK client should disable SACK")
	}
}

func TestSACKRepairsBurstLossWithoutRTO(t *testing.T) {
	// Drop 20 consecutive data packets mid-flow: SACK recovery must
	// repair them all in a couple of RTTs with zero RTOs, where NewReno
	// would need ~20 RTTs (or an RTO).
	run := func(noSack bool) *Stats {
		n, c, s := path(t, 1, units.Gbps, 5*time.Millisecond, nil, 1500)
		remaining := 20
		r1 := n.Node("r1").(*netsim.Device)
		r1.AddFilter(dropOnce{when: func(p *netsim.Packet) bool {
			if remaining > 0 && p.IsTCPData(HeaderSize) && p.Seq > 2_000_000 {
				remaining--
				return true
			}
			return false
		}})
		opts := Tuned()
		opts.NoSACK = noSack
		srv := NewServer(s, 5001, opts)
		var done *Stats
		Dial(c, srv, 10*units.MB, opts, func(st *Stats) { done = st })
		n.RunFor(time.Minute)
		if done == nil {
			t.Fatal("transfer did not finish")
		}
		return done
	}
	withSack := run(false)
	if withSack.RTOs != 0 {
		t.Errorf("SACK run had %d RTOs, want 0", withSack.RTOs)
	}
	if withSack.LossEvents != 1 {
		t.Errorf("SACK run loss events = %d, want 1 episode", withSack.LossEvents)
	}
	// Each hole goes exactly once per episode: the 20 dropped segments
	// are the only retransmissions.
	if withSack.Retransmits != 20 {
		t.Errorf("SACK run retransmits = %d, want exactly the 20 dropped segments", withSack.Retransmits)
	}
	without := run(true)
	if withSack.Duration() >= without.Duration() {
		t.Errorf("SACK (%v) should finish faster than NewReno (%v)",
			withSack.Duration(), without.Duration())
	}
}
