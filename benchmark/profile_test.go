package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"strings"
	"testing"
)

// pbWriter encodes the subset of profile.proto the fixture needs.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *pbWriter) uint(field int, v uint64) {
	w.varint(uint64(field)<<3 | 0)
	w.varint(v)
}

func (w *pbWriter) bytes(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbWriter) packed(field int, vs ...uint64) {
	var p pbWriter
	for _, v := range vs {
		p.varint(v)
	}
	w.bytes(field, p.b)
}

// fixtureSample is one stack of the fixture, leaf first; each inner
// slice is one location (an inlined callee before its caller).
type fixtureSample struct {
	locs  [][]string
	nanos uint64
	span  string
}

// fixtureProfile encodes samples as runtime/pprof does: gzipped, string
// table last, a [samples, cpu] value pair per sample. Even samples use
// packed repeated fields and odd ones unpacked, covering both encodings.
func fixtureProfile(t *testing.T, samples []fixtureSample) []byte {
	t.Helper()
	strs := []string{""}
	idx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		idx[s] = uint64(len(strs))
		strs = append(strs, s)
		return idx[s]
	}
	var top pbWriter
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbWriter
		m.uint(1, str(vt[0]))
		m.uint(2, str(vt[1]))
		top.bytes(1, m.b)
	}
	funcs := map[string]uint64{}
	var locID uint64
	for i, s := range samples {
		var ids []uint64
		for _, loc := range s.locs {
			locID++
			var l pbWriter
			l.uint(1, locID)
			for _, fn := range loc {
				if funcs[fn] == 0 {
					funcs[fn] = uint64(len(funcs) + 1)
					var f pbWriter
					f.uint(1, funcs[fn])
					f.uint(2, str(fn))
					top.bytes(5, f.b)
				}
				var line pbWriter
				line.uint(1, funcs[fn])
				line.uint(2, 42)
				l.bytes(4, line.b)
			}
			top.bytes(4, l.b)
			ids = append(ids, locID)
		}
		var m pbWriter
		if i%2 == 0 {
			m.packed(1, ids...)
			m.packed(2, 1, s.nanos)
		} else {
			for _, id := range ids {
				m.uint(1, id)
			}
			m.uint(2, 1)
			m.uint(2, s.nanos)
		}
		if s.span != "" {
			var l pbWriter
			l.uint(1, str("span"))
			l.uint(2, str(s.span))
			m.bytes(3, l.b)
		}
		top.bytes(2, m.b)
	}
	top.uint(12, 10000000) // period
	for _, s := range strs {
		top.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(top.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const ms = 1000000

var fixture = []fixtureSample{
	// Heap work: duffcopy counts against the scheduler that called it.
	{locs: [][]string{{"runtime.duffcopy"}, {"repro/internal/sim.(*Scheduler).siftDown"},
		{"repro/internal/netsim.(*Network).RunFor"}, {"main.drive"}}, nanos: 30 * ms, span: "run"},
	// Allocation counts against the allocating layer.
	{locs: [][]string{{"runtime.mallocgc"}, {"repro/internal/tcp.(*Sender).trySend"},
		{"repro/internal/sim.(*Scheduler).step"}}, nanos: 20 * ms, span: "run"},
	// An inlined scheduler accessor inside tcp code: the innermost frame
	// is the inlined sim function.
	{locs: [][]string{{"repro/internal/sim.(*Scheduler).Now", "repro/internal/tcp.(*Sender).now"},
		{"repro/internal/sim.(*Scheduler).step"}}, nanos: 10 * ms, span: "run"},
	// Helper arithmetic counts against its caller.
	{locs: [][]string{{"repro/internal/units.BitRate.TxTime"}, {"repro/internal/netsim.(*Port).startTx"}},
		nanos: 10 * ms, span: "run"},
	// Route computation inside the build span is topology work.
	{locs: [][]string{{"repro/internal/netsim.(*Network).ComputeRoutes"}, {"repro/internal/topo.NewCampus"},
		{"main.setupCampus"}}, nanos: 10 * ms, span: "build"},
	// Partitioning inside the install span is shard work.
	{locs: [][]string{{"repro/internal/netsim.(*Network).ApplyShards"}, {"repro/internal/shard.Install"}},
		nanos: 10 * ms, span: "install"},
	// GC background workers.
	{locs: [][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, nanos: 10 * ms},
	// A load generator is a package but not a layer.
	{locs: [][]string{{"repro/internal/flowgen.(*Business).launch"}}, nanos: 5 * ms, span: "run"},
	// Scheduler idling on no goroutine's behalf.
	{locs: [][]string{{"runtime.futex"}, {"runtime.findRunnable"}, {"runtime.schedule"}}, nanos: 5 * ms},
}

func TestFoldFixture(t *testing.T) {
	p, err := decodeProfile(fixtureProfile(t, fixture))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(fixture) {
		t.Fatalf("decoded %d samples, want %d", len(p.samples), len(fixture))
	}
	f := newFoldedProfile()
	f.add(p)
	want := map[string]int64{
		"sim":     40 * ms,
		"tcp":     20 * ms,
		"netsim":  10 * ms,
		"topo":    10 * ms,
		"shard":   10 * ms,
		"runtime": 10 * ms,
		"flowgen": 5 * ms,
		"other":   5 * ms,
	}
	for b, ns := range want {
		if f.nanos[b] != ns {
			t.Errorf("bucket %s = %d ns, want %d", b, f.nanos[b], ns)
		}
	}
	if len(f.nanos) != len(want) {
		t.Errorf("buckets %v, want exactly %v", f.nanos, want)
	}
	if got := f.coverage(); math.Abs(got-100.0/110.0) > 1e-12 {
		t.Errorf("coverage = %v, want %v", got, 100.0/110.0)
	}

	var out bytes.Buffer
	if err := f.write(&out); err != nil {
		t.Fatal(err)
	}
	line := "sim;main.drive;repro/internal/netsim.(*Network).RunFor;repro/internal/sim.(*Scheduler).siftDown;runtime.duffcopy 30000000\n"
	if !strings.Contains(out.String(), line) {
		t.Errorf("folded output lacks %q:\n%s", line, out.String())
	}
}

func TestFoldAccumulatesProfiles(t *testing.T) {
	p, err := decodeProfile(fixtureProfile(t, fixture[:1]))
	if err != nil {
		t.Fatal(err)
	}
	f := newFoldedProfile()
	f.add(p)
	f.add(p)
	if f.nanos["sim"] != 60*ms || len(f.stacks) != 1 {
		t.Errorf("two folds of one sample: buckets %v, %d stacks", f.nanos, len(f.stacks))
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	raw := []byte{2<<3 | 2, 10, 1} // a sample field claiming 10 bytes, holding 1
	if _, err := decodeProfile(raw); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestDecodeEmpty(t *testing.T) {
	p, err := decodeProfile(nil)
	if err != nil || len(p.samples) != 0 {
		t.Errorf("empty profile: %v, %d samples", err, len(p.samples))
	}
	if c := newFoldedProfile().coverage(); c != 0 {
		t.Errorf("coverage of an empty fold = %v", c)
	}
}
