package tcp

import (
	"testing"
)

// FuzzRangeSet drives the range set — the sender's SACK scoreboard and
// the receiver's out-of-order buffer — with arbitrary op sequences and
// checks its structural invariants against a bitmap reference model
// after every operation. The fuzz input is consumed three bytes per op:
// opcode, position, length.
func FuzzRangeSet(f *testing.F) {
	// Seeds: overlap merge, adjacency merge, trim through a range,
	// clear-then-reuse, a degenerate (end <= start) add, the receiver's
	// absorb through two ranges, leaving a third, and an add that
	// touches the range before it.
	f.Add([]byte{0, 10, 20, 0, 15, 30})                   // overlapping adds
	f.Add([]byte{0, 10, 10, 0, 20, 10})                   // exactly adjacent adds
	f.Add([]byte{0, 5, 40, 5, 12, 0})                     // add then trim mid-range
	f.Add([]byte{0, 1, 2, 6, 0, 0, 0, 3, 4})              // add, clear, add
	f.Add([]byte{7, 30, 10, 0, 8, 0})                     // reversed + zero-length adds
	f.Add([]byte{0, 0, 255, 0, 64, 255, 5, 200, 0})       // big spans, deep trim
	f.Add([]byte{0, 10, 3, 0, 12, 3, 0, 40, 3, 4, 12, 0}) // absorb at 36 through [30,33) and [36,39)
	f.Add([]byte{0, 10, 3, 0, 11, 3})                     // [33,36) touches [30,33): the bisection must find it

	f.Fuzz(func(t *testing.T, data []byte) {
		const space = 4 * 256 // every encodable position+length fits
		var s rangeSet
		ref := make([]bool, space)

		for len(data) >= 3 {
			op, a, b := data[0], int64(data[1]), int64(data[2])
			data = data[3:]
			switch op % 8 {
			case 4:
				// The receiver's absorb: every range starting at or
				// below seq goes, and seq extends through each.
				seq := a * 3
				got := s.absorb(seq)
				want := seq
				for q := int64(0); q < space; q++ {
					if ref[q] && q <= want {
						ref[q] = false
						want = max(want, q+1)
					}
				}
				if got != want {
					t.Fatalf("absorb(%d) = %d, reference says %d", seq, got, want)
				}
			case 5:
				seq := a * 3
				s.trimBelow(seq)
				for i := int64(0); i < seq && i < space; i++ {
					ref[i] = false
				}
			case 6:
				s.clear()
				for i := range ref {
					ref[i] = false
				}
			case 7:
				// Degenerate add: end <= start must be a no-op.
				s.add(a+b, a)
			default:
				start, end := a*3, a*3+b
				s.add(start, end)
				for i := start; i < end; i++ {
					ref[i] = true
				}
			}
			auditRangeSet(t, &s, ref)
		}
	})
}

// auditRangeSet checks every rangeSet invariant against the reference
// coverage bitmap.
func auditRangeSet(t *testing.T, s *rangeSet, ref []bool) {
	t.Helper()

	// Structural: sorted, non-empty, disjoint, non-adjacent ranges.
	var sum int64
	for i, rg := range s.r {
		if rg.start >= rg.end {
			t.Fatalf("range %d is empty or inverted: [%d,%d)", i, rg.start, rg.end)
		}
		if i > 0 && rg.start <= s.r[i-1].end {
			t.Fatalf("ranges %d and %d overlap or touch: [%d,%d) then [%d,%d)",
				i-1, i, s.r[i-1].start, s.r[i-1].end, rg.start, rg.end)
		}
		sum += rg.end - rg.start
	}
	if sum != s.totalBytes() {
		t.Fatalf("totalBytes = %d, ranges sum to %d", s.totalBytes(), sum)
	}

	// Reference agreement: covers() matches the bitmap everywhere, and
	// the byte count matches the number of set bits.
	var bits int64
	for q := range ref {
		if ref[q] {
			bits++
		}
		if got := s.covers(int64(q)); got != ref[q] {
			t.Fatalf("covers(%d) = %v, reference says %v (ranges %v)", q, got, ref[q], s.r)
		}
	}
	if bits != s.totalBytes() {
		t.Fatalf("totalBytes = %d, reference has %d covered bytes", s.totalBytes(), bits)
	}

	// max() is the end of the last range.
	wantMax := int64(0)
	if len(s.r) > 0 {
		wantMax = s.r[len(s.r)-1].end
	}
	if s.max() != wantMax {
		t.Fatalf("max() = %d, want %d", s.max(), wantMax)
	}

	// nextHole agrees with the reference: walking holes from 0 visits
	// exactly the uncovered positions below max(), in order.
	from := int64(0)
	for {
		hole, ok := s.nextHole(from)
		// Reference: first uncovered q in [from, max).
		want, wantOK := int64(0), false
		for q := from; q < s.max(); q++ {
			if !ref[q] {
				want, wantOK = q, true
				break
			}
		}
		if ok != wantOK || (ok && hole != want) {
			t.Fatalf("nextHole(%d) = (%d,%v), reference says (%d,%v)", from, hole, ok, want, wantOK)
		}
		if !ok {
			break
		}
		from = hole + 1
	}
}
