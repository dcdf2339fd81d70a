package harness

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/units"
)

func TestSeedDerivation(t *testing.T) {
	// Frozen values: the derivation is part of the reproducibility
	// contract — changing it silently invalidates every golden file.
	if got := Seed("camp", "point", "stream"); got != Seed("camp", "point", "stream") {
		t.Fatalf("seed not stable: %d", got)
	}
	seen := map[int64]string{}
	for _, parts := range [][]string{
		{"a", "b", "c"}, {"a", "bc", ""}, {"ab", "", "c"}, {"", "ab", "c"},
		{"a", "b"}, {"abc"}, {"a", "b", "d"},
	} {
		s := Seed(parts...)
		if s < 0 {
			t.Errorf("Seed(%q) = %d, want non-negative", parts, s)
		}
		key := fmt.Sprintf("%q", parts)
		if prev, ok := seen[s]; ok {
			t.Errorf("seed collision: %s and %s both hash to %d", prev, key, s)
		}
		seen[s] = key
	}
}

// lossPoint is a sweep point over a loss probability.
type lossPoint struct {
	loss float64
}

func (p lossPoint) Key() string { return fmt.Sprintf("loss=%.1e", p.loss) }

// measure runs a short TCP transfer at the point's loss rate on a
// ctx-derived seed and reports achieved throughput.
func measure(ctx *Ctx, p lossPoint) (units.BitRate, error) {
	n := ctx.NewNetwork("path")
	c := n.NewHost("c")
	s := n.NewHost("s")
	r := n.NewDevice("r", netsim.DeviceConfig{EgressBuffer: 4 * units.MB})
	cfg := netsim.LinkConfig{Rate: units.Gbps, Delay: 2 * time.Millisecond, MTU: 9000}
	n.Connect(c, r, cfg)
	lossy := cfg
	lossy.Loss = netsim.RandomLoss{P: p.loss}
	n.Connect(r, s, lossy)
	n.ComputeRoutes()
	srv := tcp.NewServer(s, 5001, tcp.Tuned())
	conn := tcp.Dial(c, srv, -1, tcp.Tuned(), nil)
	n.RunFor(2 * time.Second)
	return conn.Stats().Throughput(), nil
}

func sweepPoints() []lossPoint {
	return []lossPoint{
		{1e-6}, {1e-5}, {3e-5}, {1e-4}, {3e-4}, {1e-3}, {3e-3}, {1e-2},
	}
}

// render flattens a sweep result the way an experiment table would, so
// the determinism test compares bytes, not floats with tolerance.
func render(r *Result[units.BitRate]) string {
	var b strings.Builder
	for _, o := range r.Outcomes {
		fmt.Fprintf(&b, "%s %v %v %d\n", o.Key, o.Value, o.Err, len(o.Violations))
	}
	return b.String()
}

func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	var outs []string
	for _, par := range []int{1, 8} {
		r := Sweep(&Ctx{Parallel: par}, "harness-test/loss", sweepPoints(), measure)
		if err := r.Err(); err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		outs = append(outs, render(r))
	}
	if outs[0] != outs[1] {
		t.Errorf("results differ between -parallel 1 and -parallel 8:\n%s\nvs\n%s", outs[0], outs[1])
	}
	// Sanity: the sweep measured something, and loss hurts throughput.
	r := Sweep(&Ctx{}, "harness-test/loss", sweepPoints(), measure)
	vals := r.Values()
	if vals[0] < 10*units.Mbps {
		t.Errorf("clean point only reached %v", vals[0])
	}
	if vals[len(vals)-1] >= vals[0] {
		t.Errorf("1e-2 loss (%v) should be slower than 1e-6 (%v)", vals[len(vals)-1], vals[0])
	}
}

func TestSweepRunsEveryPointOnceInOrder(t *testing.T) {
	var calls atomic.Int64
	points := make([]KeyString, 100)
	for i := range points {
		points[i] = KeyString(fmt.Sprintf("p%03d", i))
	}
	r := Sweep(&Ctx{Parallel: 8}, "order", points,
		func(ctx *Ctx, p KeyString) (string, error) {
			calls.Add(1)
			return string(p), nil
		})
	if calls.Load() != 100 {
		t.Fatalf("fn ran %d times, want 100", calls.Load())
	}
	for i, o := range r.Outcomes {
		if o.Key != string(points[i]) || o.Value != string(points[i]) {
			t.Fatalf("outcome %d = %q/%q, want %q", i, o.Key, o.Value, points[i])
		}
	}
}

func TestSweepPropagatesRunErrors(t *testing.T) {
	boom := errors.New("boom")
	r := Sweep(&Ctx{Parallel: 2}, "errs", []KeyString{"ok", "bad"},
		func(ctx *Ctx, p KeyString) (int, error) {
			if p == "bad" {
				return 0, boom
			}
			return 1, nil
		})
	if err := r.Err(); err == nil || !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want wrapped boom", err)
	}
}

func TestSweepRejectsDuplicateKeys(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate keys did not panic")
		}
	}()
	Sweep(&Ctx{}, "dup", []KeyString{"x", "x"},
		func(ctx *Ctx, p KeyString) (int, error) { return 0, nil })
}

func TestInvariantsCleanOnRealTraffic(t *testing.T) {
	// A lossy TCP run with queue pressure: drops at the wire and in
	// queues, packets still in flight at drain — the ledger must close.
	_, err := measure(&Ctx{campaign: "aud", point: "clean"}, lossPoint{1e-3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{campaign: "aud", point: "clean2"}
	n := ctx.NewNetwork("net")
	c := n.NewHost("c")
	s := n.NewHost("s")
	n.Connect(c, s, netsim.LinkConfig{
		Rate: units.Gbps, Delay: time.Millisecond, MTU: 1500,
		Loss: netsim.RandomLoss{P: 1e-3},
	})
	n.ComputeRoutes()
	srv := tcp.NewServer(s, 5001, tcp.Tuned())
	tcp.Dial(c, srv, -1, tcp.Tuned(), nil)
	n.RunFor(time.Second)
	if errs := n.AuditInvariants(); len(errs) != 0 {
		t.Fatalf("clean run violated invariants: %v", errs)
	}
	cons := n.Conservation()
	if cons.Injected == 0 || cons.Delivered == 0 || cons.Dropped == 0 {
		t.Fatalf("conservation counters implausible: %+v", cons)
	}
}

func TestInvariantsCleanThroughFirewall(t *testing.T) {
	// The campus topology funnels traffic through a stateful firewall —
	// a PacketHolder whose engine queues and in-service packets must be
	// visible to the conservation ledger.
	ctx := &Ctx{campaign: "aud", point: "campus"}
	c := topo.NewCampus(ctx.Seed("campus"), topo.CampusConfig{})
	ctx.Adopt("campus", c.Net)
	var st *tcp.Stats
	srv := tcp.NewServer(c.ScienceHost.Host, 5001, c.ScienceHost.Tuning)
	tcp.Dial(c.RemoteDTN.Host, srv, 5*units.MB, c.RemoteDTN.Tuning, func(s *tcp.Stats) { st = s })
	c.Net.RunFor(10 * time.Second)
	if st == nil {
		t.Fatal("transfer did not complete")
	}
	if err := ctx.Audit(); err != nil {
		t.Fatalf("campus run violated invariants: %v", err)
	}
	if c.Net.Conservation().Injected == 0 {
		t.Fatal("no packets accounted")
	}
}

func TestInvariantsCatchTampering(t *testing.T) {
	ctx := &Ctx{campaign: "aud", point: "tamper"}
	n := ctx.NewNetwork("net")
	c := n.NewHost("c")
	s := n.NewHost("s")
	n.Connect(c, s, netsim.LinkConfig{Rate: units.Gbps, Delay: time.Millisecond})
	n.ComputeRoutes()
	srv := tcp.NewServer(s, 5001, tcp.Tuned())
	tcp.Dial(c, srv, 100*units.KB, tcp.Tuned(), nil)
	n.RunFor(time.Second)

	if err := ctx.Audit(); err != nil {
		t.Fatalf("untampered run violated invariants: %v", err)
	}
	// A phantom drop-site entry breaks drop agreement and (by
	// construction) nothing else — exactly one class of error.
	n.DropStats[netsim.DropSite{Node: "phantom"}] += 3
	err := ctx.Audit()
	if err == nil {
		t.Fatal("tampered drop accounting not detected")
	}
	if !strings.Contains(err.Error(), "net: ") || !strings.Contains(err.Error(), "drop accounting disagrees") {
		t.Fatalf("expected a drop-agreement violation on net, got %v", err)
	}
}

// TestAdoptCarriesRunSettings: an adopted network gets the context's
// telemetry plane at once and its shard count at the first run; a sweep
// point's context inherits the shard count but not the plane.
func TestAdoptCarriesRunSettings(t *testing.T) {
	build := func(n *netsim.Network) *netsim.Network {
		a := n.NewDevice("a", netsim.DeviceConfig{})
		b := n.NewDevice("b", netsim.DeviceConfig{})
		n.Connect(a, b, netsim.LinkConfig{Rate: units.Gbps, Delay: time.Millisecond}).MarkCut()
		n.ComputeRoutes()
		return n
	}
	tele := telemetry.New()
	ctx := &Ctx{Shards: 2, Telemetry: tele}
	n := build(ctx.Adopt("net", netsim.New(1)))
	if n.Telemetry() != tele {
		t.Fatal("Adopt did not attach the context's telemetry")
	}
	if got := len(n.ShardSchedulers()); got != 0 {
		t.Fatalf("Adopt installed %d shards before the first run", got)
	}
	n.RunFor(time.Millisecond)
	if got := len(n.ShardSchedulers()); got != 2 {
		t.Fatalf("first run installed %d shards, want 2", got)
	}
	r := Sweep(ctx, "settings", []KeyString{"p"}, func(pctx *Ctx, p KeyString) (int, error) {
		pn := build(pctx.NewNetwork("net"))
		pn.RunFor(time.Millisecond)
		if pn.Telemetry() != nil {
			return 0, errors.New("sweep point inherited the telemetry plane")
		}
		return len(pn.ShardSchedulers()), nil
	})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got := r.Values()[0]; got != 2 {
		t.Fatalf("sweep point ran on %d shards, want 2", got)
	}
}

func TestSweepReportsViolations(t *testing.T) {
	r := Sweep(&Ctx{}, "viol", []KeyString{"p"},
		func(ctx *Ctx, p KeyString) (int, error) {
			n := ctx.NewNetwork("net")
			h := n.NewHost("h")
			s := n.NewHost("s")
			n.Connect(h, s, netsim.LinkConfig{Rate: units.Gbps})
			n.ComputeRoutes()
			h.Send(&netsim.Packet{
				Flow: netsim.FlowKey{Src: "h", Dst: "s", DstPort: 9, Proto: netsim.ProtoUDP},
				Size: 100,
			})
			n.Run()
			n.DropStats[netsim.DropSite{Node: "phantom"}]++ // sabotage
			return 0, nil
		})
	if len(r.Violations()) == 0 {
		t.Fatal("sweep did not surface the invariant violation")
	}
	if r.Err() == nil {
		t.Fatal("Err() nil despite violation")
	}
}
