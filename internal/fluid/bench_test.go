package fluid

import (
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/units"
)

// BENCH_8 benchmarks: the hybrid engine's claim is that background cost
// is independent of the flow count. benchScenario keeps the topology,
// elephant, and wall of simulated time fixed while the background scale
// sweeps 10³ → 10⁵ flows (arrival count over the 5 s run; the fluid
// population cap scales alongside). The all-packet reference at 10³ is
// the extrapolation base: per-packet mice cost grows linearly in flow
// count, the hybrid's does not.
func benchScenario(flows int) Scenario {
	return Scenario{
		Name:           "bench",
		Clients:        8,
		FlowsPerSecond: float64(flows) / 5,
		MeanSize:       100 * units.KB,
		Flows:          flows / 25, // ~concurrent population at ~40 flows/s per unit
		Bottleneck:     units.Gbps,
		Delay:          5 * time.Millisecond,
		Elephant:       true,
		Duration:       5 * time.Second,
		Seed:           42,
	}
}

func benchAllPacket(b *testing.B, flows int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := &harness.Ctx{}
		st := RunPacket(ctx, benchScenario(flows))
		if err := ctx.Audit(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	}
}

func benchHybrid(b *testing.B, flows int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := &harness.Ctx{}
		st, _ := RunHybrid(ctx, benchScenario(flows))
		if err := ctx.Audit(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.Events)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	}
}

func BenchmarkAllPacket1k(b *testing.B)  { benchAllPacket(b, 1_000) }
func BenchmarkAllPacket10k(b *testing.B) { benchAllPacket(b, 10_000) }

func BenchmarkHybrid1k(b *testing.B)   { benchHybrid(b, 1_000) }
func BenchmarkHybrid10k(b *testing.B)  { benchHybrid(b, 10_000) }
func BenchmarkHybrid100k(b *testing.B) { benchHybrid(b, 100_000) }

// BenchmarkTick isolates the per-tick cost at 10⁵-flow scale: 100
// aggregates sharing a dumbbell, one tick per op. This is the entire
// recurring cost of the background, and it must not allocate (the
// dmzvet hotpath contract on Engine.tick).
func BenchmarkTick(b *testing.B) {
	sc := benchScenario(100_000)
	s := buildScenario(&harness.Ctx{}, "hybrid", sc)
	eng := New(s.net, Config{})
	for i := 0; i < 100; i++ {
		c := s.clients[i%len(s.clients)]
		if _, err := eng.Add(AggregateConfig{
			Name: "bg" + string(rune('a'+i/26)) + string(rune('a'+i%26)),
			Src:  c.Name(), Dst: s.bgServer.Name(),
			FlowsPerSecond: sc.FlowsPerSecond / 100,
			Flows:          sc.Flows / 100,
			Window:         64 * units.KiB,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.tick()
	}
}
