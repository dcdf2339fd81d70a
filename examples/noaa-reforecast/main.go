// NOAA reforecast repatriation: the §6.3 use case end to end.
//
// The Earth System Research Lab computed a 1984-2012 reforecast at NERSC
// (800 TB on HPSS) and needed ~170 TB back in Boulder. Through the NOAA
// firewall, FTP trickled at 1-2 MB/s; with a Science DMZ DTN running a
// Globus-style parallel mover, the measured batch hit ~395 MB/s — 273
// files totalling 239.5 GB in just over 10 minutes.
//
// This example plans the transfer analytically, simulates both paths,
// and extrapolates the full repatriation.
//
// Run with: go run ./examples/noaa-reforecast
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/dtn"
	"repro/internal/flowgen"
	"repro/internal/harness"
	"repro/internal/topo"
	"repro/internal/units"
)

func main() {
	shards := flag.Int("shards", 1, "run the simulated network on N parallel shards; output is byte-identical at any N")
	flag.Parse()
	ctx := &harness.Ctx{Shards: *shards}

	dataset := flowgen.NOAAReforecast()
	fmt.Printf("dataset: %d files, %v total\n\n", len(dataset.Files), dataset.Total())

	// The before picture: an FTP server behind the NOAA firewall.
	wan := topo.WANConfig{Rate: 10 * units.Gbps, Delay: 12500 * time.Microsecond, MTU: 1500}
	campus := topo.NewCampus(1, topo.CampusConfig{WAN: wan})
	ctx.Adopt("campus", campus.Net)

	plan := dtn.PlanTransfer(campus.RemoteDTN, campus.ScienceHost, dataset.Total(), dtn.LegacyFTP{})
	fmt.Printf("FTP plan: %v (%s-limited at %v) — the 'trickle'\n",
		round(plan.Duration), plan.Limit, plan.Rate)

	var ftp *dtn.Result
	dtn.LegacyFTP{}.Start(campus.RemoteDTN, campus.ScienceHost, 20*units.MB, func(r *dtn.Result) { ftp = r })
	campus.Net.RunFor(3 * time.Minute)
	fmt.Printf("FTP measured: %v (%.1f MB/s)\n\n", ftp.Throughput(), float64(ftp.Throughput())/8e6)

	// The after picture: Science DMZ DTN with storage provisioned at
	// ~400 MB/s, Globus-style parallel streams.
	dmz := topo.NewSimpleDMZ(2, topo.SimpleDMZConfig{
		WAN:     wan,
		DTNDisk: dtn.Disk{ReadRate: 3200 * units.Mbps, WriteRate: 3200 * units.Mbps},
	})
	ctx.Adopt("dmz", dmz.Net)
	plan2 := dtn.PlanTransfer(dmz.RemoteDTN, dmz.DTN, dataset.Total(), dtn.GridFTP{Streams: 4})
	fmt.Printf("DTN plan: %v (%s-limited at %v)\n", round(plan2.Duration), plan2.Limit, plan2.Rate)

	// Simulate a scaled slice of the dataset (12 files) to measure the
	// achieved rate, then extrapolate the full job.
	slice := dtn.Dataset{Name: "noaa-slice", Files: dataset.Files[:12]}
	var res *dtn.SetResult
	dtn.TransferSet(dmz.RemoteDTN, dmz.DTN, slice, dtn.GridFTP{Streams: 4}, 2,
		func(r *dtn.SetResult) { res = r })
	dmz.Net.RunFor(3 * time.Minute)
	fmt.Printf("DTN measured (12-file slice): %v (%.0f MB/s)\n",
		res.Throughput(), float64(res.Throughput())/8e6)

	full := res.Throughput().Serialize(dataset.Total())
	repatriation := res.Throughput().Serialize(170 * units.TB)
	fmt.Printf("\n%v batch at that rate: %v (paper: ~10 minutes)\n", dataset.Total(), round(full))
	fmt.Printf("full 170 TB repatriation: %.1f days\n", repatriation.Hours()/24)
	fmt.Printf("speedup over FTP: %.0fx (paper: ~200x)\n",
		float64(res.Throughput())/float64(ftp.Throughput()))
	if err := ctx.Audit(); err != nil {
		fmt.Fprintln(os.Stderr, "invariant violated:", err)
		os.Exit(1)
	}
}

func round(d time.Duration) time.Duration { return d.Round(time.Second) }
