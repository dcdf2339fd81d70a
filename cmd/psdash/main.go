// Command psdash reproduces Figure 2: it simulates a perfSONAR
// measurement mesh across several sites with one soft-failing path, runs
// scheduled throughput tests, and renders the dashboard grid and alert
// log. With -faults it instead runs a fault-injection scenario (see
// internal/fault) and renders the mesh's view of it plus the monitor's
// detection report. With -live it polls a running dmzsim -serve
// endpoint and renders a live dashboard of that simulation.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/perfsonar"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// runFaults executes a scenario file and renders the operator's view:
// the dashboard grid built from the scenario's own measurement archive,
// then the closed loop's verdict table.
func runFaults(ctx *harness.Ctx, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sc, err := fault.ParseScenario(data)
	if err != nil {
		return err
	}
	rep, err := fault.Run(ctx, sc)
	if err != nil {
		return err
	}
	rate := units.BitRate(sc.Topology.RateMbps) * units.Mbps
	if sc.Topology.RateMbps == 0 {
		rate = 1000 * units.Mbps
	}
	fmt.Printf("Fault scenario %q dashboard\n", sc.Name)
	fmt.Print(perfsonar.Dashboard(rep.Archive, perfsonar.DashboardConfig{
		Good: rate / 2, Warn: rate / 10,
	}, rep.Sites))
	fmt.Println(rep.Render())
	return nil
}

func main() {
	trace := flag.String("trace", "", "write a JSONL packet/TCP event trace to this file")
	metrics := flag.String("metrics", "", "write periodic metrics snapshots (JSON) to this file")
	faults := flag.String("faults", "", "run a fault-injection scenario from this JSON file instead of Figure 2")
	live := flag.String("live", "", "poll a dmzsim -serve endpoint (URL or host:port) and render a live dashboard instead of simulating")
	refresh := flag.Duration("refresh", time.Second, "with -live: poll interval")
	pollCount := flag.Int("count", 0, "with -live: number of polls (0 = until the run reports done)")
	liveFilter := flag.String("live-filter", defaultLiveFilter, "with -live: regexp selecting metric series to display")
	cache := flag.Bool("cache", false, "with -live: show the content-cache summary (hit ratio, egress saved, occupancy) and default the filter to "+cacheFilter)
	flag.Parse()

	if *live != "" {
		filter := *liveFilter
		if *cache && filter == defaultLiveFilter {
			filter = cacheFilter
		}
		if err := runLive(*live, *refresh, *pollCount, filter, *cache); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ctx := &harness.Ctx{}
	var traceFile *os.File
	var traceWriter *telemetry.JSONLWriter
	if *trace != "" || *metrics != "" {
		tele := telemetry.New()
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
				os.Exit(1)
			}
			traceFile = f
			traceWriter = telemetry.NewJSONLWriter(f)
			tele.Bus.Subscribe(traceWriter.Write)
		}
		if *metrics != "" {
			tele.SampleInterval = time.Second
		}
		ctx.Telemetry = tele
	}

	if *faults != "" {
		if err := runFaults(ctx, *faults); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		r := experiments.Fig2(ctx)
		fmt.Println(r.Render())
		for _, a := range r.Alerts {
			fmt.Println(" ", a)
		}
	}
	if err := ctx.Audit(); err != nil {
		fmt.Fprintln(os.Stderr, "invariant violated:", err)
		os.Exit(1)
	}

	if traceWriter != nil {
		if err := traceWriter.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
		}
		traceFile.Close()
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := ctx.Telemetry.WriteMetricsJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
		}
	}
}
