package tcp

import "sort"

// byteRange is a half-open [start, end) interval of sequence space.
type byteRange struct {
	start, end int64
}

// rangeSet is a sorted set of disjoint, non-adjacent half-open byte
// ranges with a running byte count. It is both the sender's SACK
// scoreboard and the receiver's out-of-order buffer.
type rangeSet struct {
	r     []byteRange
	total int64
}

// add inserts [start, end), merging it with every range it overlaps or
// touches. The first such range is found by bisection: the ranges are
// sorted and disjoint, so their ends ascend.
func (s *rangeSet) add(start, end int64) {
	if end <= start {
		return
	}
	i := sort.Search(len(s.r), func(i int) bool { return s.r[i].end >= start })
	// Ranges i..j-1 overlap or touch [start, end): fold them in.
	j := i
	for ; j < len(s.r) && s.r[j].start <= end; j++ {
		start = min(start, s.r[j].start)
		end = max(end, s.r[j].end)
		s.total -= s.r[j].end - s.r[j].start
	}
	s.total += end - start
	if i == j {
		s.r = append(s.r, byteRange{})
		copy(s.r[i+1:], s.r[i:])
	} else {
		s.r = append(s.r[:i+1], s.r[j:]...)
	}
	s.r[i] = byteRange{start, end}
}

// absorb removes every range that starts at or below seq, extending seq
// through each, and returns the extended seq: the receiver's cumulative
// ACK point once buffered out-of-order data has become contiguous.
func (s *rangeSet) absorb(seq int64) int64 {
	i := 0
	for ; i < len(s.r) && s.r[i].start <= seq; i++ {
		seq = max(seq, s.r[i].end)
		s.total -= s.r[i].end - s.r[i].start
	}
	s.r = s.r[:copy(s.r, s.r[i:])]
	return seq
}

// trimBelow removes coverage below seq.
func (s *rangeSet) trimBelow(seq int64) {
	out := s.r[:0]
	total := int64(0)
	for _, rg := range s.r {
		if rg.end <= seq {
			continue
		}
		if rg.start < seq {
			rg.start = seq
		}
		out = append(out, rg)
		total += rg.end - rg.start
	}
	s.r = out
	s.total = total
}

// clear empties the set.
func (s *rangeSet) clear() {
	s.r = s.r[:0]
	s.total = 0
}

// totalBytes returns the covered byte count.
func (s *rangeSet) totalBytes() int64 { return s.total }

// max returns the highest covered sequence, or 0 when empty.
func (s *rangeSet) max() int64 {
	if len(s.r) == 0 {
		return 0
	}
	return s.r[len(s.r)-1].end
}

// covers reports whether seq falls inside a covered range.
func (s *rangeSet) covers(seq int64) bool {
	for _, rg := range s.r {
		if seq < rg.start {
			return false
		}
		if seq < rg.end {
			return true
		}
	}
	return false
}

// nextHole returns the first uncovered sequence at or after from and
// below max(). ok is false when no hole remains.
func (s *rangeSet) nextHole(from int64) (int64, bool) {
	if from >= s.max() {
		return 0, false
	}
	for _, rg := range s.r {
		if from < rg.start {
			return from, true
		}
		if from < rg.end {
			from = rg.end
		}
	}
	if from < s.max() {
		return from, true
	}
	return 0, false
}
