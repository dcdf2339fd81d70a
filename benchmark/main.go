// Command dmzbench is the simulator's end-to-end benchmark. It runs one
// workload repeatedly for a fixed host-time budget, checks every run,
// and prints the metrics as one JSON object on its last output line.
//
//	dmzbench --workload dmz-bulk --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it reports the per-layer metrics from
// traced runs, and writes their spans, a CPU profile and the profile
// folded by layer under --out. README.md describes the workloads and
// how to read the output.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

const (
	// instances is how many scenario instances one invocation cycles
	// through, each with its own seed derived from --seed. Figures are
	// means over the instances, so one instance's luck in its random
	// draws moves them less.
	instances    = 4
	setupSamples = 25 // extra set-ups per invocation, timed for setup_s
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dmzbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dmz-bulk, campus-firewall or tier2-cache")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "host seconds to spend measuring")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced runs")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory for the traced run's spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || *seconds > 120) {
		err = fmt.Errorf("--seconds %d out of range [1, 120]", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dmzbench:", err)
		return 2
	}
	s := newSeries(w, *seed, stderr)
	budget := time.Duration(*seconds) * time.Second

	var res *result
	if *trace == 0 {
		res, err = s.untraced(budget, stdout)
	} else {
		res, err = s.traced(budget, *out, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dmzbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "dmzbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// series is every run of one invocation. Runs of one instance seed must
// all share the digest of that seed's first run.
type series struct {
	w      *workload
	seed   int64 // the --seed the instance seeds derive from
	seeds  []int64
	stderr io.Writer
	reps   []rep
	first  map[int64]*counts
}

func newSeries(w *workload, seed int64, stderr io.Writer) *series {
	s := &series{w: w, seed: seed, stderr: stderr, first: make(map[int64]*counts)}
	for i := int64(0); i < instances; i++ {
		s.seeds = append(s.seeds, seed*instances+i)
	}
	return s
}

// collect runs whole rounds, one run per instance seed, until the next
// round would overrun the budget; at least one round. With a tracer,
// each run is CPU-profiled and folded into prof.
func (s *series) collect(budget time.Duration, tr *tracer, prof *foldedProfile) ([]rep, error) {
	start := time.Now()
	var out []rep
	for {
		r, err := s.one(s.seeds[len(out)%len(s.seeds)], tr, prof)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		if len(out)%len(s.seeds) == 0 {
			el := time.Since(start)
			if el+el/time.Duration(len(out)/len(s.seeds)) > budget {
				return out, nil
			}
		}
	}
}

// one makes and checks one run from a collected heap and records it.
func (s *series) one(seed int64, tr *tracer, prof *foldedProfile) (rep, error) {
	runtime.GC()
	var r rep
	if prof == nil {
		r = runRep(s.w, seed, nil)
	} else {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return r, fmt.Errorf("start CPU profile: %w", err)
		}
		r = runRep(s.w, seed, tr)
		pprof.StopCPUProfile()
		p, err := decodeProfile(buf.Bytes())
		if err != nil {
			return r, err
		}
		prof.add(p)
		if prof.raw == nil {
			prof.raw = buf.Bytes()
		}
	}
	if r.counts != nil {
		if s.first[seed] == nil {
			s.first[seed] = r.counts
		}
		r.failures = append(r.failures, digestFailure(s.first[seed].digest(), r.counts.digest())...)
	}
	for _, f := range r.failures {
		fmt.Fprintf(s.stderr, "dmzbench: %s seed %d run %d: %s\n", s.w.name, seed, len(s.reps)+1, f)
	}
	s.reps = append(s.reps, r)
	return r, nil
}

// warmUp makes one unmeasured run, so caches, heap growth and lazy
// runtime set-up are settled before anything is timed. The run is
// checked and counts as attempted.
func (s *series) warmUp() error {
	_, err := s.one(s.seeds[0], nil, nil)
	return err
}

// tally returns the attempted and failed run counts.
func (s *series) tally() (attempted, failed int) {
	for _, r := range s.reps {
		if len(r.failures) > 0 {
			failed++
		}
	}
	return len(s.reps), failed
}

// report prints each instance's digest and model outcomes beside the
// metrics.
func (s *series) report(stdout io.Writer) {
	for _, seed := range s.seeds {
		c := s.first[seed]
		if c == nil {
			continue
		}
		fmt.Fprintf(stdout, "digest %s seed=%d %s\n", s.w.name, seed, c.digest())
		for _, line := range c.digestLines() {
			fmt.Fprintf(stdout, "  %s\n", line)
		}
	}
}

// perInstance is a run figure's mean over instance seeds of its median
// over that seed's runs.
func perInstance(reps []rep, f func(rep) float64) float64 {
	bySeed := make(map[int64][]float64)
	var seeds []int64
	for _, r := range reps {
		if _, ok := bySeed[r.seed]; !ok {
			seeds = append(seeds, r.seed)
		}
		bySeed[r.seed] = append(bySeed[r.seed], f(r))
	}
	var sum float64
	for _, seed := range seeds {
		sum += median(bySeed[seed])
	}
	if len(seeds) == 0 {
		return 0
	}
	return sum / float64(len(seeds))
}

func (s *series) untraced(budget time.Duration, stdout io.Writer) (*result, error) {
	if err := s.warmUp(); err != nil {
		return nil, err
	}
	setups, err := setupTimes(s.w, s.seeds, setupSamples)
	if err != nil {
		return nil, err
	}
	reps, err := s.collect(budget, nil, nil)
	if err != nil {
		return nil, err
	}
	for _, r := range reps {
		setups = append(setups, r.setupS)
	}
	values := map[string]float64{
		"wall_s":          perInstance(reps, func(r rep) float64 { return r.wallS }),
		"setup_s":         median(setups),
		"allocs":          perInstance(reps, func(r rep) float64 { return float64(r.allocs) }),
		"alloc_bytes":     perInstance(reps, func(r rep) float64 { return float64(r.allocBytes) }),
		"heap_live_bytes": perInstance(reps, func(r rep) float64 { return float64(r.heapLive) }),
	}
	s.report(stdout)
	walls := make([]float64, len(reps))
	for i, r := range reps {
		walls[i] = r.wallS
	}
	sort.Float64s(walls)
	fmt.Fprintf(stdout, "runs %d (%d instances); wall_s per run min %.4g median %.4g max %.4g; setup_s over %d set-ups\n",
		len(reps), len(s.seeds), walls[0], median(walls), walls[len(walls)-1], len(setups))
	for _, d := range endToEnd {
		fmt.Fprintf(stdout, "%-16s %-14.6g %s\n", d.name, values[d.name], d.unit)
	}
	return s.finish(endToEnd, values)
}

// traced spends half the budget on untraced runs, the baseline for
// trace.overhead, and half on traced, profiled runs.
func (s *series) traced(budget time.Duration, outDir string, stdout io.Writer) (*result, error) {
	if err := s.warmUp(); err != nil {
		return nil, err
	}
	plain, err := s.collect(budget/2, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	prof := newFoldedProfile()
	reps, err := s.collect(budget/2, tr, prof)
	if err != nil {
		return nil, err
	}
	values := layerValues(s, reps, plain, tr, prof)
	if fails := traceFailures(s.w.name, values); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(s.stderr, "dmzbench: %s traced runs: %s\n", s.w.name, f)
		}
		for i := len(s.reps) - len(reps); i < len(s.reps); i++ {
			s.reps[i].failures = append(s.reps[i].failures, fails...)
		}
	}
	if err := writeTrace(outDir, fmt.Sprintf("%s-seed%d", s.w.name, s.seed), tr, prof); err != nil {
		return nil, err
	}
	s.report(stdout)
	for _, d := range perLayer {
		fmt.Fprintf(stdout, "%-26s %-14.6g %s\n", d.name, values[d.name], d.unit)
	}
	return s.finish(perLayer, values)
}

func (s *series) finish(defs []metricDef, values map[string]float64) (*result, error) {
	m, err := buildMetrics(defs, values)
	if err != nil {
		return nil, err
	}
	attempted, failed := s.tally()
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// setupTimes times n set-ups, cycling through the instance seeds, each
// built and discarded unrun.
func setupTimes(w *workload, seeds []int64, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		inst, err := w.setup(seeds[i%len(seeds)], nil)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		runtime.KeepAlive(inst)
		out = append(out, d.Seconds())
	}
	return out, nil
}

// median of a sample, the mean of the middle pair for an even count, 0
// for none.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
