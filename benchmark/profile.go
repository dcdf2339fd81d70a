package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, so the benchmark needs
// nothing outside the standard library, and folds every sample onto the
// layer that did the work.

// layers are the simulator modules the traced run reports a self time
// for. "runtime" holds the Go GC's background workers; allocation and
// GC assists count against the layer that allocated.
var layers = []string{"sim", "netsim", "tcp", "firewall", "content", "fluid", "shard", "topo", "runtime"}

// spanLayer charges everything the benchmark does inside a set-up span to
// the layer that span calls: topology build and route computation to
// topo, the shard plan to shard.
var spanLayer = map[string]string{"build": "topo", "install": "shard"}

const internalPrefix = "repro/internal/"

// helperPackages hold value types and formulas the layers call inline
// (rate and size arithmetic, closed-form TCP models); like runtime
// helpers, their time counts against the calling layer.
var helperPackages = map[string]bool{"units": true, "analytic": true}

// cpuProfile is the part of a decoded profile the fold needs.
type cpuProfile struct {
	samples []profSample
}

// profSample is one stack, leaf frame first (inlined callees before
// their callers), with its CPU nanoseconds and labels.
type profSample struct {
	stack  []string
	nanos  int64
	labels map[string]string
}

// foldedProfile is CPU time grouped by bucket: a layer, another
// repro/internal package, or "other".
type foldedProfile struct {
	nanos  map[string]int64
	stacks map[string]int64 // "bucket;root;...;leaf" -> nanoseconds
	raw    []byte           // one profile as runtime/pprof wrote it
}

func newFoldedProfile() *foldedProfile {
	return &foldedProfile{nanos: make(map[string]int64), stacks: make(map[string]int64)}
}

// bucket names where one sample's CPU time is charged: the layer of the
// set-up span it ran in, else the innermost repro/internal package on
// its stack that is not a helper, else "runtime" for a GC background
// worker, else "other".
func bucket(s profSample) string {
	if l, ok := spanLayer[s.labels["span"]]; ok {
		return l
	}
	for _, fn := range s.stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			if !helperPackages[rest] {
				return rest
			}
		}
	}
	for _, fn := range s.stack {
		if fn == "runtime.gcBgMarkWorker" {
			return "runtime"
		}
	}
	return "other"
}

// add folds a profile's samples into f.
func (f *foldedProfile) add(p *cpuProfile) {
	for _, s := range p.samples {
		b := bucket(s)
		f.nanos[b] += s.nanos
		frames := make([]string, 0, len(s.stack)+1)
		frames = append(frames, b)
		for i := len(s.stack) - 1; i >= 0; i-- {
			frames = append(frames, s.stack[i])
		}
		f.stacks[strings.Join(frames, ";")] += s.nanos
	}
}

func (f *foldedProfile) total() int64 {
	var t int64
	for _, n := range f.nanos {
		t += n
	}
	return t
}

// coverage is the share of CPU time charged to a named layer.
func (f *foldedProfile) coverage() float64 {
	t := f.total()
	if t == 0 {
		return 0
	}
	var in int64
	for _, l := range layers {
		in += f.nanos[l]
	}
	return float64(in) / float64(t)
}

// write renders the folded stacks, one "frames nanoseconds" line each,
// in the format flame-graph tools read.
func (f *foldedProfile) write(w io.Writer) error {
	keys := make([]string, 0, len(f.stacks))
	for k := range f.stacks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, f.stacks[k]); err != nil {
			return err
		}
	}
	return nil
}

// decodeProfile parses a profile.proto message, gzipped or not.
func decodeProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string indices
	}
	var (
		strs     []string
		types    []int64 // sample_type type string indices
		raws     []rawSample
		locLines = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcName = make(map[uint64]int64)    // function id -> name string index
	)
	top := pbuf{b: data}
	for !top.done() {
		field, wire := top.key()
		switch {
		case field == 1 && wire == 2: // sample_type
			m := pbuf{b: top.bytes()}
			for !m.done() {
				if f, w := m.key(); f == 1 && w == 0 {
					types = append(types, int64(m.varint()))
				} else {
					m.skip(w)
				}
			}
			top.err = errors.Join(top.err, m.err)
		case field == 2 && wire == 2: // sample
			m := pbuf{b: top.bytes()}
			var s rawSample
			for !m.done() {
				f, w := m.key()
				switch {
				case f == 1:
					s.locs = m.uint64s(w, s.locs)
				case f == 2:
					for _, v := range m.uint64s(w, nil) {
						s.values = append(s.values, int64(v))
					}
				case f == 3 && w == 2:
					l := pbuf{b: m.bytes()}
					var kv [2]int64
					for !l.done() {
						lf, lw := l.key()
						if (lf == 1 || lf == 2) && lw == 0 {
							kv[lf-1] = int64(l.varint())
						} else {
							l.skip(lw)
						}
					}
					m.err = errors.Join(m.err, l.err)
					s.labels = append(s.labels, kv)
				default:
					m.skip(w)
				}
			}
			top.err = errors.Join(top.err, m.err)
			raws = append(raws, s)
		case field == 4 && wire == 2: // location
			m := pbuf{b: top.bytes()}
			var id uint64
			var fns []uint64
			for !m.done() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 4 && w == 2:
					l := pbuf{b: m.bytes()}
					for !l.done() {
						if lf, lw := l.key(); lf == 1 && lw == 0 {
							fns = append(fns, l.varint())
						} else {
							l.skip(lw)
						}
					}
					m.err = errors.Join(m.err, l.err)
				default:
					m.skip(w)
				}
			}
			top.err = errors.Join(top.err, m.err)
			locLines[id] = fns
		case field == 5 && wire == 2: // function
			m := pbuf{b: top.bytes()}
			var id uint64
			var name int64
			for !m.done() {
				f, w := m.key()
				switch {
				case f == 1 && w == 0:
					id = m.varint()
				case f == 2 && w == 0:
					name = int64(m.varint())
				default:
					m.skip(w)
				}
			}
			top.err = errors.Join(top.err, m.err)
			funcName[id] = name
		case field == 6 && wire == 2: // string_table
			strs = append(strs, string(top.bytes()))
		default:
			top.skip(wire)
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile: malformed message: %w", top.err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// Charge the CPU-time column; fall back to the last one.
	col := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			col = i
		}
	}
	p := &cpuProfile{}
	for _, r := range raws {
		s := profSample{labels: make(map[string]string)}
		if col >= 0 && col < len(r.values) {
			s.nanos = r.values[col]
		}
		for _, loc := range r.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcName[fn]))
			}
		}
		for _, kv := range r.labels {
			s.labels[str(kv[0])] = str(kv[1])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// pbuf is a cursor over one protobuf message. The first decoding error
// sticks in err and ends the message.
type pbuf struct {
	b   []byte
	err error
}

func (d *pbuf) done() bool { return d.err != nil || len(d.b) == 0 }

func (d *pbuf) fail(msg string) {
	if d.err == nil {
		d.err = errors.New(msg)
	}
	d.b = nil
}

func (d *pbuf) varint() uint64 {
	var v uint64
	for i := 0; i < 10; i++ {
		if i >= len(d.b) {
			break
		}
		c := d.b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			d.b = d.b[i+1:]
			return v
		}
	}
	d.fail("bad varint")
	return 0
}

// key reads a field key: field number and wire type.
func (d *pbuf) key() (field, wire int) {
	k := d.varint()
	return int(k >> 3), int(k & 7)
}

// bytes reads a length-delimited field.
func (d *pbuf) bytes() []byte {
	n := d.varint()
	if n > uint64(len(d.b)) {
		d.fail("truncated field")
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// uint64s appends a repeated varint field, packed (wire type 2) or not.
func (d *pbuf) uint64s(wire int, dst []uint64) []uint64 {
	switch wire {
	case 0:
		return append(dst, d.varint())
	case 2:
		p := pbuf{b: d.bytes()}
		for !p.done() {
			dst = append(dst, p.varint())
		}
		if p.err != nil {
			d.fail(p.err.Error())
		}
		return dst
	}
	d.fail("bad wire type for a repeated varint")
	return dst
}

func (d *pbuf) skip(wire int) {
	switch wire {
	case 0:
		d.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(d.b) < n {
			d.fail("truncated fixed field")
			return
		}
		d.b = d.b[n:]
	case 2:
		d.bytes()
	default:
		d.fail(fmt.Sprintf("unsupported wire type %d", wire))
	}
}
