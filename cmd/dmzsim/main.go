// Command dmzsim runs the paper-reproduction experiments and prints the
// tables and figures they regenerate.
//
// Usage:
//
//	dmzsim -list
//	dmzsim -run fig1
//	dmzsim -run all
//	dmzsim -sweep loss=1e-6..1e-2:8 -parallel 4
//	dmzsim -sweep rtt=1ms..100ms:6
//	dmzsim -faults scenario.json
//	dmzsim -faults scenario.json -fault-periods 15s,30s,60s,120s -parallel 4
//	dmzsim -faults scenario.json -serve localhost:8080
//	dmzsim -faults scenario.json -trace-spans spans.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/content"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/units"
)

// renderer is any experiment result.
type renderer interface{ Render() string }

// cacheBudget / catalogPath are the -cache-budget / -catalog flag
// values, read by the tier2 content-caching experiment.
var (
	cacheBudget int64
	catalogPath string
)

// tier2Config assembles the content experiment from its flags.
func tier2Config() experiments.Tier2Config {
	cfg := experiments.Tier2Config{Budget: units.ByteSize(cacheBudget)}
	if catalogPath != "" {
		data, err := os.ReadFile(catalogPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "-catalog:", err)
			os.Exit(1)
		}
		cat, err := content.Parse(string(data))
		if err != nil {
			fmt.Fprintln(os.Stderr, "-catalog:", err)
			os.Exit(1)
		}
		cfg.Catalog = cat
	}
	return cfg
}

var registry = map[string]func(*harness.Ctx) renderer{
	"tier2":    func(ctx *harness.Ctx) renderer { return experiments.Tier2(ctx, tier2Config()) },
	"fig1":     func(ctx *harness.Ctx) renderer { return experiments.Fig1(ctx, experiments.Fig1Config{}) },
	"fig2":     func(ctx *harness.Ctx) renderer { return experiments.Fig2(ctx) },
	"fig3":     func(ctx *harness.Ctx) renderer { return experiments.Fig3(ctx) },
	"fig4":     func(ctx *harness.Ctx) renderer { return experiments.Fig4(ctx) },
	"fig5":     func(ctx *harness.Ctx) renderer { return experiments.Fig5(ctx) },
	"fig67":    func(ctx *harness.Ctx) renderer { return experiments.Fig67(ctx) },
	"fig8":     func(ctx *harness.Ctx) renderer { return experiments.Fig8(ctx) },
	"linecard": func(ctx *harness.Ctx) renderer { return experiments.LineCard(ctx) },
	"sawtooth": func(ctx *harness.Ctx) renderer {
		return experiments.Sawtooth(ctx, 20*time.Millisecond, 2*time.Second, 10*time.Second)
	},
	"noaa":      func(ctx *harness.Ctx) renderer { return experiments.NOAA(ctx) },
	"nersc":     func(ctx *harness.Ctx) renderer { return experiments.NERSC(ctx) },
	"roce":      func(ctx *harness.Ctx) renderer { return experiments.RoCE(ctx) },
	"sdnbypass": func(ctx *harness.Ctx) renderer { return experiments.SDNBypass(ctx) },
	"audit":     func(ctx *harness.Ctx) renderer { return experiments.AuditDesigns(ctx) },
	"hybrid":    func(ctx *harness.Ctx) renderer { return experiments.Hybrid(ctx) },
}

var descriptions = map[string]string{
	"fig1":      "Figure 1: TCP throughput vs RTT under loss (Mathis, Reno, H-TCP)",
	"fig2":      "Figure 2: perfSONAR dashboard mesh with a soft-failing site",
	"fig3":      "Figure 3: simple Science DMZ vs general-purpose campus path",
	"fig4":      "Figure 4: supercomputer center DTN vs login-node ingestion",
	"fig5":      "Figure 5: big-data site transfer cluster",
	"fig67":     "§6.1/Figures 6-7: UC Boulder physics cluster fan-in",
	"fig8":      "§6.2/Figure 8: Penn State firewall sequence checking",
	"linecard":  "§2.1: failing line card invisible to SNMP, caught by OWAMP",
	"sawtooth":  "§2.1 dynamics: cwnd sawtooth under periodic loss",
	"noaa":      "§6.3: NOAA reforecast repatriation (FTP vs DTN)",
	"nersc":     "§6.4: NERSC<->OLCF carbon-14 dataset",
	"roce":      "§7.1: RoCE on virtual circuits, CPU comparison",
	"sdnbypass": "§7.3: OpenFlow IDS-gated firewall bypass",
	"audit":     "pattern audit across notional designs",
	"hybrid":    "hybrid fluid/packet engine: validation + background scaling",
	"tier2":     "Tier-2 dataset pulls: in-network content caching vs WAN egress",
}

func names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// setupTelemetry wires the --trace / --metrics / --serve / --trace-spans
// flags into one telemetry plane (nil when none is set), which the run
// context attaches to every network the selected experiments build.
// The returned finish func writes the outputs after the run; wait
// blocks holding the -serve endpoint up until interrupted (a no-op
// otherwise).
func setupTelemetry(tracePath, metricsPath, serveAddr, spansPath string) (tele *telemetry.Telemetry, finish, wait func()) {
	noop := func() {}
	if tracePath == "" && metricsPath == "" && serveAddr == "" && spansPath == "" {
		return nil, noop, noop
	}
	tele = telemetry.New()
	var traceFile *os.File
	var traceWriter *telemetry.JSONLWriter
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			os.Exit(1)
		}
		traceFile = f
		traceWriter = telemetry.NewJSONLWriter(f)
		tele.Bus.Subscribe(traceWriter.Write)
	}
	if metricsPath != "" {
		tele.SampleInterval = 100 * time.Millisecond
	}

	var col *trace.Collector
	if serveAddr != "" || spansPath != "" {
		col = trace.NewCollector()
		col.Attach(tele.Bus)
	}
	var srv *trace.Server
	if serveAddr != "" {
		if tele.SampleInterval <= 0 {
			tele.SampleInterval = 100 * time.Millisecond
		}
		var err error
		srv, err = trace.NewServer(serveAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving live observability on %s (/metrics /spans /healthz)\n", srv.URL())
		tele.OnSample(func(snap *telemetry.Snapshot) {
			srv.Publish(trace.BuildPublished(tele, col, snap.At, "running"))
		})
	}

	finish = func() {
		if traceWriter != nil {
			if err := traceWriter.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			}
			traceFile.Close()
		}
		if metricsPath != "" {
			f, err := os.Create(metricsPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
				os.Exit(1)
			}
			defer f.Close()
			if err := tele.WriteMetricsJSON(f); err != nil {
				fmt.Fprintln(os.Stderr, "metrics:", err)
			}
		}
		if spansPath != "" {
			f, err := os.Create(spansPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "trace-spans:", err)
				os.Exit(1)
			}
			err = trace.WriteChromeTrace(f, col)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "trace-spans:", err)
				os.Exit(1)
			}
			// The span file is for Perfetto; the "why was it slow"
			// ranking goes to stdout, one report per transfer.
			for _, ft := range col.Flows() {
				trace.Analyze(ft, 0, col.Faults()).Render(os.Stdout)
			}
		}
		if srv != nil {
			srv.Publish(trace.BuildPublished(tele, col, col.Now(), "done"))
		}
	}
	wait = noop
	if srv != nil {
		wait = func() {
			fmt.Fprintf(os.Stderr, "run complete; final state stays up on %s (interrupt to exit)\n", srv.URL())
			select {}
		}
	}
	return tele, finish, wait
}

// parseSweep parses a -sweep spec of the form axis=min..max[:points],
// where axis is "loss" (probabilities) or "rtt" (durations or seconds):
//
//	loss=1e-6..1e-2:8
//	rtt=1ms..100ms:6
func parseSweep(spec string) (experiments.SweepConfig, error) {
	var cfg experiments.SweepConfig
	axis, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return cfg, fmt.Errorf("sweep spec %q: want axis=min..max[:points]", spec)
	}
	cfg.Axis = axis
	if bounds, pts, ok := strings.Cut(rest, ":"); ok {
		n, err := strconv.Atoi(pts)
		if err != nil {
			return cfg, fmt.Errorf("sweep spec %q: bad point count %q", spec, pts)
		}
		cfg.Points = n
		rest = bounds
	}
	lo, hi, ok := strings.Cut(rest, "..")
	if !ok {
		return cfg, fmt.Errorf("sweep spec %q: want min..max bounds", spec)
	}
	var err error
	if cfg.Min, err = parseAxisValue(lo); err != nil {
		return cfg, fmt.Errorf("sweep spec %q: %v", spec, err)
	}
	if cfg.Max, err = parseAxisValue(hi); err != nil {
		return cfg, fmt.Errorf("sweep spec %q: %v", spec, err)
	}
	return cfg, nil
}

// parseAxisValue accepts a bare float (loss probability, RTT seconds) or
// a duration literal like 10ms.
func parseAxisValue(s string) (float64, error) {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	return 0, fmt.Errorf("bad axis value %q (want a number or duration)", s)
}

// runFaults handles -faults: a single scenario run, or — when
// -fault-periods is set — a detection campaign sweeping BWCTL test
// cadence (and optionally -fault-severities) on the parallel harness.
func runFaults(ctx *harness.Ctx, path, periods, severities string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sc, err := fault.ParseScenario(data)
	if err != nil {
		return err
	}
	if periods == "" {
		if severities != "" {
			return fmt.Errorf("-fault-severities requires -fault-periods (a campaign)")
		}
		rep, err := fault.Run(ctx, sc)
		if err != nil {
			return err
		}
		fmt.Println(rep.Render())
		return ctx.Audit()
	}
	cfg := fault.CampaignConfig{Base: sc}
	for _, p := range strings.Split(periods, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(p))
		if err != nil {
			return fmt.Errorf("-fault-periods: %v", err)
		}
		cfg.Periods = append(cfg.Periods, d)
	}
	if severities != "" {
		for _, s := range strings.Split(severities, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("-fault-severities: %v", err)
			}
			cfg.Severities = append(cfg.Severities, v)
		}
	}
	res, err := fault.RunCampaign(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return nil
}

func main() {
	list := flag.Bool("list", false, "list experiments")
	run := flag.String("run", "", "experiment to run (or 'all')")
	sweep := flag.String("sweep", "", "run a parameter sweep, e.g. loss=1e-6..1e-2:8 or rtt=1ms..100ms:6")
	tracePath := flag.String("trace", "", "write a JSONL packet/TCP event trace to this file")
	metrics := flag.String("metrics", "", "write periodic metrics snapshots (JSON) to this file")
	serve := flag.String("serve", "", "serve live observability (/metrics /spans /healthz) on this address, e.g. localhost:8080")
	traceSpans := flag.String("trace-spans", "", "write a Chrome/Perfetto trace of per-transfer spans to this file and print critical-path reports")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
	faults := flag.String("faults", "", "run a fault-injection scenario from this JSON file")
	faultPeriods := flag.String("fault-periods", "", "with -faults: comma-separated BWCTL test periods (e.g. 15s,30s,60s) to sweep as a detection campaign")
	faultSevs := flag.String("fault-severities", "", "with -fault-periods: comma-separated loss severities for the campaign's second axis")
	parallel := flag.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS); results are identical at any value")
	flag.Int64Var(&cacheBudget, "cache-budget", 0, "with -run tier2: absolute content-cache byte budget (0 = 10% of catalog bytes)")
	flag.StringVar(&catalogPath, "catalog", "", "with -run tier2: dataset catalog file, one 'name bytes chunk-bytes' per line (default: synthetic 240 x 1 MB)")
	shards := flag.Int("shards", 1, "run the simulated network on N parallel shards; output is byte-identical at any N")
	flag.Parse()

	finishProfiling := setupProfiling(*cpuprofile, *memprofile, *pprofAddr)
	tele, finish, wait := setupTelemetry(*tracePath, *metrics, *serve, *traceSpans)
	// newCtx is one run's context: one per experiment, audited when it
	// returns, so -run all never holds every experiment's networks.
	newCtx := func() *harness.Ctx {
		return &harness.Ctx{Shards: *shards, Parallel: *parallel, Telemetry: tele}
	}
	runExperiment := func(name string) {
		ctx := newCtx()
		fmt.Println(registry[name](ctx).Render())
		if err := ctx.Audit(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: invariant violated: %v\n", name, err)
			os.Exit(1)
		}
	}

	switch {
	case *faults != "":
		if err := runFaults(newCtx(), *faults, *faultPeriods, *faultSevs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *sweep != "":
		if *tracePath != "" || *metrics != "" || *serve != "" || *traceSpans != "" {
			fmt.Fprintln(os.Stderr, "warning: -trace/-metrics/-serve/-trace-spans are ignored by -sweep: sweep workers run isolated from the shared telemetry plane")
		}
		cfg, err := parseSweep(*sweep)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		res, err := experiments.RunSweep(newCtx(), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(res.Render())
	case *list:
		for _, name := range names() {
			fmt.Printf("%-10s %s\n", name, descriptions[name])
		}
	case *run == "all":
		for _, name := range names() {
			fmt.Printf("=== %s ===\n", name)
			runExperiment(name)
		}
	case *run != "":
		if _, ok := registry[*run]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *run)
			os.Exit(2)
		}
		runExperiment(*run)
	default:
		flag.Usage()
		os.Exit(2)
	}
	finish()
	finishProfiling()
	wait()
}
