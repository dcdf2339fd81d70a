package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Live mode: poll a dmzsim -serve endpoint and render a terminal
// dashboard of the running simulation — the operator's view the paper
// argues for, pointed at the simulator itself.

// liveHealth mirrors trace.Health (decoded structurally to keep psdash
// decoupled from the trace package's type).
type liveHealth struct {
	Status        string  `json:"status"`
	SimNowSeconds float64 `json:"sim_now_seconds"`
	Flows         int     `json:"flows"`
	OpenFaults    int     `json:"open_faults"`
}

// promSample is one parsed exposition line.
type promSample struct {
	Name   string
	Labels string // raw {..} text, already deterministic from the server
	Value  float64
}

// parseProm parses the Prometheus text exposition format far enough
// for dashboard display: NAME{LABELS} VALUE lines, comments skipped.
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels := series, ""
		if br := strings.IndexByte(series, '{'); br >= 0 {
			name, labels = series[:br], series[br:]
		}
		out = append(out, promSample{Name: name, Labels: labels, Value: v})
	}
	return out, sc.Err()
}

func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s (%s)", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// defaultLiveFilter selects the series worth watching by default: the
// closed loop's detection metrics against the injected ground truth,
// and simulation progress.
const defaultLiveFilter = `^(sim_now_seconds|fault_|tcp_bytes_acked|tcp_retransmits)`

// cacheFilter selects the content-cache series (the -cache flag's
// default view).
const cacheFilter = `^content_cache_`

// cacheSummary derives the operator's cache lines from the
// content_cache_* series: hit ratio, WAN egress saved, and store
// occupancy, one line per cache label set.
func cacheSummary(samples []promSample) []string {
	per := map[string]map[string]float64{}
	for _, s := range samples {
		if !strings.HasPrefix(s.Name, "content_cache_") {
			continue
		}
		m := per[s.Labels]
		if m == nil {
			m = map[string]float64{}
			per[s.Labels] = m
		}
		m[strings.TrimPrefix(s.Name, "content_cache_")] = s.Value
	}
	labels := make([]string, 0, len(per))
	for l := range per {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var out []string
	for _, l := range labels {
		m := per[l]
		lookups := m["hits"] + m["misses"]
		hitRatio := 0.0
		if lookups > 0 {
			hitRatio = m["hits"] / lookups
		}
		occupancy := 0.0
		if m["store_budget_bytes"] > 0 {
			occupancy = m["store_bytes"] / m["store_budget_bytes"]
		}
		out = append(out, fmt.Sprintf(
			"  cache%s hit-ratio=%.1f%%  egress-saved=%s  occupancy=%.1f%% (%.0f chunks, %s of %s)",
			l, 100*hitRatio, byteSize(m["egress_saved_bytes"]),
			100*occupancy, m["store_chunks"],
			byteSize(m["store_bytes"]), byteSize(m["store_budget_bytes"])))
	}
	return out
}

// byteSize renders a float byte count in the fixed binary-ish units the
// dashboard uses elsewhere.
func byteSize(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2f GB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2f MB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2f KB", v/1e3)
	}
	return fmt.Sprintf("%.0f B", v)
}

// runLive polls base (a dmzsim -serve URL) every refresh interval and
// renders health plus the metric series matching pattern. count > 0
// stops after that many polls (count = 0 polls until the endpoint
// reports done and then twice more to show the final state). showCache
// adds the derived content-cache summary lines to every poll.
func runLive(base string, refresh time.Duration, count int, pattern string, showCache bool) error {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	re, err := regexp.Compile(pattern)
	if err != nil {
		return fmt.Errorf("-live-filter: %v", err)
	}
	client := &http.Client{Timeout: 5 * time.Second}

	donePolls := 0
	for i := 0; count <= 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(refresh)
		}
		hb, err := fetch(client, base+"/healthz")
		if err != nil {
			fmt.Printf("%s unreachable: %v\n", base, err)
			continue
		}
		var h liveHealth
		if err := json.Unmarshal(hb, &h); err != nil {
			return fmt.Errorf("bad /healthz payload: %v", err)
		}
		fmt.Printf("[%s] sim t=%.1fs  flows=%d  open-faults=%d\n",
			h.Status, h.SimNowSeconds, h.Flows, h.OpenFaults)

		mb, err := fetch(client, base+"/metrics")
		if err != nil {
			fmt.Println("  /metrics:", err)
			continue
		}
		samples, err := parseProm(strings.NewReader(string(mb)))
		if err != nil {
			return fmt.Errorf("bad /metrics payload: %v", err)
		}
		shown := 0
		sort.SliceStable(samples, func(a, b int) bool {
			if samples[a].Name != samples[b].Name {
				return samples[a].Name < samples[b].Name
			}
			return samples[a].Labels < samples[b].Labels
		})
		for _, s := range samples {
			if s.Name == "sim_now_seconds" || !re.MatchString(s.Name+s.Labels) {
				continue
			}
			fmt.Printf("  %-s%s %g\n", s.Name, s.Labels, s.Value)
			shown++
		}
		if shown == 0 {
			fmt.Println("  (no series match the filter yet)")
		}
		if showCache {
			lines := cacheSummary(samples)
			if len(lines) == 0 {
				fmt.Println("  (no content caches in this simulation)")
			}
			for _, l := range lines {
				fmt.Println(l)
			}
		}
		if h.Status == "done" {
			donePolls++
			if count <= 0 && donePolls >= 2 {
				return nil
			}
		}
	}
	return nil
}
