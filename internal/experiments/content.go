package experiments

import (
	"fmt"
	"time"

	"repro/internal/content"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/units"
)

// Tier2Config adjusts the in-network content caching experiment: a
// Tier-2 reader population repeatedly pulling Tier-1 datasets across the
// WAN, with and without a DMZ-switch content cache, across popularity
// skews.
type Tier2Config struct {
	// Skews are the Zipf exponents to sweep. Nil means {0.8, 1.0, 1.2}.
	Skews []float64
	// BudgetFrac sizes the cache as a fraction of total catalog bytes.
	// Zero means 0.10.
	BudgetFrac float64
	// Budget, when nonzero, is an absolute cache byte budget and
	// overrides BudgetFrac (the dmzsim -cache-budget flag).
	Budget units.ByteSize
	// Readers is the Tier-2 host count; zero means 16.
	Readers int
	// PullsPerReader is each reader's dataset-fetch count; zero means 30.
	PullsPerReader int
	// Catalog overrides the synthetic catalog; nil builds Datasets
	// uniform datasets of DatasetBytes in ChunkBytes chunks.
	Catalog *content.Catalog
	// Datasets / DatasetBytes / ChunkBytes shape the synthetic catalog;
	// zeros mean 240 × 1 MB in 256 KB chunks.
	Datasets     int
	DatasetBytes units.ByteSize
	ChunkBytes   units.ByteSize
	// CacheAt places the cache ("dmz-sw" or "border"); empty means the
	// DMZ switch.
	CacheAt string
	// MaxSim caps the simulated time per run; zero means 60 s.
	MaxSim time.Duration
}

func (c Tier2Config) withDefaults() Tier2Config {
	if c.Skews == nil {
		c.Skews = []float64{0.8, 1.0, 1.2}
	}
	if c.BudgetFrac == 0 {
		c.BudgetFrac = 0.10
	}
	if c.Readers == 0 {
		c.Readers = 16
	}
	if c.PullsPerReader == 0 {
		c.PullsPerReader = 30
	}
	if c.Datasets == 0 {
		c.Datasets = 240
	}
	if c.DatasetBytes == 0 {
		c.DatasetBytes = units.MB
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 256 * units.KB
	}
	if c.MaxSim == 0 {
		c.MaxSim = 60 * time.Second
	}
	return c
}

// Tier2Row is one (skew, cache) cell of the sweep.
type Tier2Row struct {
	Skew   float64
	Budget units.ByteSize // zero: no cache built (the baseline)

	WANEgress units.ByteSize // Tier-1 side bytes transmitted into the WAN
	Reduction float64        // 1 − WANEgress/baseline-WANEgress at the same skew

	HitRatio   float64
	Saved      units.ByteSize // hit bytes + aggregation-collapsed bytes
	Aggregated uint64
	Evictions  uint64

	PullMean time.Duration
	PullP95  time.Duration

	Done      bool
	AuditErrs []string
}

// Tier2Result is the rendered experiment.
type Tier2Result struct {
	Cfg     Tier2Config
	Catalog units.ByteSize // total catalog bytes
	Budget  units.ByteSize // cache budget used for cached rows
	Rows    []Tier2Row
}

// runTier2Cell runs one population against one cache configuration.
func runTier2Cell(ctx *harness.Ctx, cfg Tier2Config, cat *content.Catalog, skew float64, budget units.ByteSize) Tier2Row {
	t2 := topo.NewTier2(21, topo.Tier2Config{
		Catalog:     cat,
		Readers:     cfg.Readers,
		CacheBudget: budget,
		CacheAt:     cfg.CacheAt,
	})
	ctx.Adopt(fmt.Sprintf("skew=%g/budget=%d", skew, budget), t2.Net)
	pop := content.NewPopulation(t2.Readers, content.PopulationConfig{
		Origin:         t2.OriginHost.Name(),
		Catalog:        cat,
		PullsPerReader: cfg.PullsPerReader,
		Skew:           skew,
		Seed:           1,
	})
	for t2.Net.Now().Seconds() < cfg.MaxSim.Seconds() && !pop.Done() {
		t2.Net.RunFor(100 * time.Millisecond)
	}

	row := Tier2Row{Skew: skew, Budget: budget, Done: pop.Done()}
	row.WANEgress = t2.WANEgressBytes()
	if c := t2.Cache; c != nil {
		row.HitRatio = c.HitRatio()
		row.Saved = c.SavedBytes()
		row.Aggregated = c.Aggregated
		row.Evictions = c.Store().Evictions
	}
	var durs []float64
	for _, d := range pop.PullDurations() {
		durs = append(durs, d.Seconds())
	}
	if len(durs) > 0 {
		row.PullMean = time.Duration(stats.Mean(durs) * float64(time.Second))
		row.PullP95 = time.Duration(stats.Percentile(durs, 95) * float64(time.Second))
	}
	for _, err := range t2.Net.AuditInvariants() {
		row.AuditErrs = append(row.AuditErrs, err.Error())
	}
	if c := t2.Net.Conservation(); !c.Balanced() {
		row.AuditErrs = append(row.AuditErrs, "conservation: "+c.String())
	}
	return row
}

// Tier2 sweeps popularity skew × {no cache, budgeted cache} on the
// many-reader topology. The headline claim: at classic Zipf (skew 1.0)
// a DMZ cache holding 10% of the catalog keeps the majority of repeat
// pull bytes off the WAN.
func Tier2(ctx *harness.Ctx, cfg Tier2Config) *Tier2Result {
	cfg = cfg.withDefaults()
	cat := cfg.Catalog
	if cat == nil {
		cat = content.Uniform("ds", cfg.Datasets, cfg.DatasetBytes, cfg.ChunkBytes)
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = units.ByteSize(float64(cat.TotalBytes) * cfg.BudgetFrac)
	}
	res := &Tier2Result{Cfg: cfg, Catalog: cat.TotalBytes, Budget: budget}
	for _, skew := range cfg.Skews {
		base := runTier2Cell(ctx, cfg, cat, skew, 0)
		cached := runTier2Cell(ctx, cfg, cat, skew, budget)
		if base.WANEgress > 0 {
			cached.Reduction = 1 - float64(cached.WANEgress)/float64(base.WANEgress)
		}
		res.Rows = append(res.Rows, base, cached)
	}
	return res
}

// ReductionAt returns the WAN egress reduction measured at the given
// skew, and whether that cell exists.
func (r *Tier2Result) ReductionAt(skew float64) (float64, bool) {
	for _, row := range r.Rows {
		if row.Skew == skew && row.Budget > 0 {
			return row.Reduction, true
		}
	}
	return 0, false
}

// Pass reports whether every run finished its workload and audited
// clean.
func (r *Tier2Result) Pass() bool {
	for _, row := range r.Rows {
		if !row.Done || len(row.AuditErrs) != 0 {
			return false
		}
	}
	return true
}

func (r *Tier2Result) Render() string {
	tb := stats.NewTable(
		fmt.Sprintf("Tier-2 dataset pulls: %d readers × %d pulls over %v catalog (cache %v ≈ %.0f%%)",
			r.Cfg.Readers, r.Cfg.PullsPerReader, r.Catalog, r.Budget,
			100*float64(r.Budget)/float64(r.Catalog)),
		"zipf", "cache", "WAN egress", "reduction", "hit ratio", "saved", "aggregated", "evictions", "pull mean", "pull p95", "audit")
	for _, row := range r.Rows {
		cache, reduction, hit, saved, agg, evict := "none", "-", "-", "-", "-", "-"
		if row.Budget > 0 {
			cache = row.Budget.String()
			reduction = fmt.Sprintf("%.1f%%", 100*row.Reduction)
			hit = fmt.Sprintf("%.1f%%", 100*row.HitRatio)
			saved = row.Saved.String()
			agg = fmt.Sprintf("%d", row.Aggregated)
			evict = fmt.Sprintf("%d", row.Evictions)
		}
		verdict := "ok"
		if len(row.AuditErrs) != 0 {
			verdict = fmt.Sprintf("FAIL (%d)", len(row.AuditErrs))
		} else if !row.Done {
			verdict = "INCOMPLETE"
		}
		tb.Add(fmt.Sprintf("%.1f", row.Skew), cache,
			row.WANEgress.String(), reduction, hit, saved, agg, evict,
			fmt.Sprintf("%.2fms", float64(row.PullMean)/float64(time.Millisecond)),
			fmt.Sprintf("%.2fms", float64(row.PullP95)/float64(time.Millisecond)),
			verdict)
	}
	out := tb.String()
	out += "\nEach skew runs twice: no cache, then a DMZ-switch content store at the\n" +
		"budget above with PIT request aggregation. Reduction compares WAN egress\n" +
		"(Tier-1 side bytes onto the cut link) against the no-cache row; saved is\n" +
		"hit bytes plus aggregation-collapsed bytes. Every run must finish its\n" +
		"workload and close the packet conservation ledger, including the cache's\n" +
		"originated/absorbed columns.\n"
	for _, row := range r.Rows {
		for _, e := range row.AuditErrs {
			out += fmt.Sprintf("AUDIT %.1f/%v: %s\n", row.Skew, row.Budget, e)
		}
	}
	return out
}
