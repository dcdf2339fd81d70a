package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/units"
)

// Property test of the conservative synchronization protocol against the
// single-threaded reference model. Each trial builds a random three-domain
// topology (random cut delays, random intra-domain delays), fires a random
// packet schedule through raw Host.Send, and requires the recorded delivery
// log — every (host, time, packet ID, source) tuple — to be identical at
// shard counts 1, 2, and 4.
//
// The schedule is quantized to coarse ticks and the cut delays to whole
// milliseconds so that arrivals routinely coincide with synchronization
// barriers (the arrival == barrier edge the window protocol re-runs shards
// for) and distinct sources routinely deliver at the same instant to the
// same host (the tie the kernel breaks by lane, never by shard rank or
// goroutine timing).

// propTrial describes one randomly generated trial, fully determined by its
// seed so every shard count replays the identical scenario.
type propTrial struct {
	seed   int64
	shards int
}

// propHosts is the per-domain host count; three domains are chained
// through two cut links so traffic crosses zero, one, or two cuts.
const propHosts = 2

func runPropertyTrial(t *testing.T, tr propTrial) string {
	t.Helper()
	rng := rand.New(rand.NewSource(tr.seed))
	n := runCtx(t, tr.shards).Adopt(fmt.Sprintf("seed %d", tr.seed), netsim.New(tr.seed))

	domains := []string{"a", "b", "c"}
	var hosts []*netsim.Host
	switches := make([]*netsim.Device, len(domains))
	for di, d := range domains {
		switches[di] = n.NewDevice("s"+d, netsim.DeviceConfig{})
		for i := 0; i < propHosts; i++ {
			h := n.NewHost(fmt.Sprintf("%s%d", d, i))
			hosts = append(hosts, h)
			n.Connect(h, switches[di], netsim.LinkConfig{
				Rate:  10 * units.Gbps,
				Delay: time.Duration(10+rng.Intn(10)*10) * time.Microsecond,
			})
		}
	}
	// Chain the domains with whole-millisecond cut delays: the smaller
	// one is the lookahead, and arrivals land exactly on barrier-aligned
	// instants often enough to exercise the due-at-T re-run.
	for di := 0; di+1 < len(domains); di++ {
		n.Connect(switches[di], switches[di+1], netsim.LinkConfig{
			Rate:  10 * units.Gbps,
			Delay: time.Duration(1+rng.Intn(4)) * time.Millisecond,
		}).MarkCut()
	}
	n.ComputeRoutes()

	// Per-host delivery logs: each host appends only to its own slice
	// from its own shard goroutine, so recording is race-free and the
	// final concatenation order is fixed by host name, not by execution.
	logs := make([][]string, len(hosts))
	for i, h := range hosts {
		i, h := i, h
		h.Bind(netsim.ProtoTCP, 7000, netsim.HandlerFunc(func(pkt *netsim.Packet) {
			logs[i] = append(logs[i], fmt.Sprintf("%s t=%v id=%d from=%s",
				h.Name(), h.Now(), pkt.ID, pkt.Flow.Src))
		}))
	}

	if _, err := Install(n, tr.shards); err != nil {
		t.Fatalf("seed %d shards %d: %v", tr.seed, tr.shards, err)
	}

	// Random schedule: sends fire as control events at coarse-quantized
	// instants, including deliberate same-instant bursts from distinct
	// sources to the same destination (cross-shard delivery ties).
	for i := 0; i < 48; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		at := sim.Time(0).Add(time.Duration(rng.Intn(80)) * 250 * time.Microsecond)
		size := units.ByteSize(64 + rng.Intn(24)*64)
		n.Sched.At(at, func() {
			pkt := src.NewPacket()
			pkt.Flow = netsim.FlowKey{Src: src.Name(), Dst: dst.Name(), Proto: netsim.ProtoTCP, DstPort: 7000}
			pkt.Size = size
			src.Send(pkt)
		})
	}

	n.RunFor(200 * time.Millisecond)

	if c := n.Conservation(); !c.Balanced() {
		t.Errorf("seed %d shards %d: ledger does not balance: %v", tr.seed, tr.shards, c)
	}

	names := make([]int, len(hosts))
	for i := range names {
		names[i] = i
	}
	sort.Slice(names, func(a, b int) bool { return hosts[names[a]].Name() < hosts[names[b]].Name() })
	var out string
	for _, i := range names {
		for _, line := range logs[i] {
			out += line + "\n"
		}
	}
	return out
}

func TestPropertyConservativeSyncMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337, 9001} {
		got := make(map[int]string)
		for _, shards := range equivalenceCounts {
			got[shards] = runPropertyTrial(t, propTrial{seed: seed, shards: shards})
		}
		if got[1] == "" {
			t.Fatalf("seed %d: reference run delivered nothing; the trial is vacuous", seed)
		}
		requireAllEqual(t, fmt.Sprintf("seed %d delivery log", seed), got)
	}
}
