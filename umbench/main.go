// Command umbench is the repository's benchmark. It runs one named
// workload against the uMiddle modules from a seed, checks every
// delivery, and prints one JSON result line: the end-to-end metrics, or
// with -trace 1 the per-layer metrics taken from spans the benchmark
// records around its own calls into each module.
//
//	umbench -workload stream -seed 1 -seconds 8 -trace 0
//
// run.sh builds it from the enclosing checkout and passes its
// arguments through. See README.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// units names every metric the benchmark reports and its unit.
var units = map[string]string{
	// End to end.
	"setup_s":        "s",
	"heap_mb":        "MB",
	"latency_p50_ms": "ms",
	"cpu_us_per_msg": "us",
	"rebind_p50_ms":  "ms",
	// Per layer.
	"transport.emit_us_p50":            "us",
	"transport.emit_us_p99":            "us",
	"transport.connect_us_p50":         "us",
	"transport.connect_us_p99":         "us",
	"transport.failovers":              "count",
	"transport.retries":                "count",
	"transport.dropped":                "count",
	"qos.buffer_high_water":            "count",
	"directory.add_local_us_p50":       "us",
	"directory.propagate_s":            "s",
	"directory.lookup_us_p50":          "us",
	"directory.query_cache_hit_ratio":  "ratio",
	"directory.advert_bytes_per_entry": "B",
	"directory.remote_mapped_ms_p50":   "ms",
	"directory.snapshot_ms":            "ms",
	"mapper.map_ms_p50":                "ms",
	"mapper.unmap_ms_p50":              "ms",
	"wal.replay_ms":                    "ms",
	"wal.bytes_per_entry":              "B",
	"netemu.write_us":                  "us",
	"netemu.read_us":                   "us",
	"netemu.cpu_us_per_frame":          "us",
	"netemu.group_drops":               "count",
	"go.alloc_bytes_per_msg":           "B",
	"go.gc_cycles":                     "count",
	"go.goroutines":                    "count",
	"load.late_p99_ms":                 "ms",
	"trace.overhead_cpu_us_per_msg":    "us",
	"trace.overhead_latency_p50_ms":    "ms",
}

// endToEnd are the metrics a run reports without tracing. The tails
// (latency_p99_ms, rebind_p90_ms) go to the detail line instead: on a
// 2-vCPU host they swing by more than any bound a regression gate could
// hold, run to run.
var endToEnd = []string{"setup_s", "heap_mb", "latency_p50_ms", "cpu_us_per_msg", "rebind_p50_ms"}

// runCfg is what a workload gets from the command line.
type runCfg struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// result is one run's outcome. Violations make the run fail; they are
// never folded into a metric.
type result struct {
	e2e        map[string]float64
	layer      map[string]float64
	attempted  uint64
	failed     uint64
	violations []string
	info       map[string]any
	spans      *tracer
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

type workload struct {
	why   string
	moves string // which per-layer metrics should move which end-to-end ones
	run   func(runCfg) (*result, error)
}

var workloads = map[string]workload{
	"stream": {
		why:   "2 nodes, 4 static paths, 1400 B Poisson at 50k msgs/s on an unlimited link: the per-message spine does the work, the directory is idle after set-up.",
		moves: "transport.emit_us, netemu.*, go.alloc_bytes_per_msg -> cpu_us_per_msg, latency_p50_ms; qos.buffer_high_water -> the detail line's latency_p99_ms",
		run:   runStream,
	},
	"bindings": {
		why:   "20,000 dynamic ConnectQuery bindings, 64 B Poisson at 10k msgs/s spread over all of them: set-up (advert integration, index inserts, one worker per path) dominates, nothing batches, and each new device is matched against every path.",
		moves: "directory.add_local_us, directory.propagate_s, transport.connect_us, directory.query_cache_hit_ratio, directory.advert_bytes_per_entry -> setup_s; directory.lookup_us, directory.remote_mapped_ms -> rebind_p50_ms",
		run:   runBindings,
	},
	"churn": {
		why:   "1000 dynamic bindings at 5k msgs/s while a seeded schedule re-publishes emulated UPnP lights on a 10 Mbps device LAN: the only workload where the mapper works and directory deltas hit paths that carry traffic.",
		moves: "mapper.map_ms, mapper.unmap_ms, directory.remote_mapped_ms, transport.failovers/retries/dropped -> rebind_p50_ms",
		run:   runChurn,
	},
	"rejoin": {
		why:   "4 peers hold 5k entries on a shared 10 Mbps bus; a fresh node cold-joins, then restarts warm from its log 40 times: advert bytes and the WAL are the costs.",
		moves: "directory.propagate_s (the cold join), directory.advert_bytes_per_entry -> setup_s; directory.snapshot_ms, wal.replay_ms, wal.bytes_per_entry -> rebind_p50_ms (restart to first delivery)",
		run:   runRejoin,
	},
}

func main() {
	name := flag.String("workload", "", "workload to run: stream, bindings, churn or rejoin")
	seed := flag.Int64("seed", 1, "seed for the schedule, the churn plan and every sampled choice")
	seconds := flag.Int("seconds", 8, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "umbench: need -workload %s, -seconds >= 1, -trace 0|1\n", strings.Join(names(), "|"))
		os.Exit(2)
	}
	cfg := runCfg{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "umbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	os.Exit(report(*name, w, cfg, res))
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// report prints the detail line and the result line, writes the spans,
// and returns the exit code: non-zero on any correctness violation.
func report(name string, w workload, cfg runCfg, res *result) int {
	if res.failed > 0 {
		res.violate("%d of %d messages not delivered exactly once, in order, to the right sink", res.failed, res.attempted)
	}
	if d := res.layer["netemu.group_drops"]; d > 0 {
		res.violate("netemu group inboxes dropped %.0f datagrams", d)
	}
	metrics := map[string]any{}
	want := endToEnd
	src := res.e2e
	if cfg.trace {
		want, src = nil, res.layer
		for n := range units {
			if !contains(endToEnd, n) {
				want = append(want, n)
			}
		}
		sort.Strings(want)
	}
	for _, n := range want {
		v, ok := src[n]
		if !ok {
			res.violate("metric %s was not measured", n)
			continue
		}
		metrics[n] = map[string]any{"value": v, "unit": units[n]}
	}
	if cfg.trace && res.spans != nil {
		res.info["span_self_ms_p50"] = res.spans.selfMs()
		if err := writeSpans(name, cfg.seed, res.spans); err != nil {
			fmt.Fprintf(os.Stderr, "umbench: writing spans: %v\n", err)
		}
	}
	share := 0.0
	if res.attempted > 0 {
		share = float64(res.failed) / float64(res.attempted)
	}
	detail := map[string]any{
		"workload": name, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(), "trace": cfg.trace,
		"why": w.why, "moves": w.moves, "failed_share": share, "violations": res.violations,
		"host": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "cpu": cpuModel(),
		},
		"info": res.info,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.Encode(detail)         //nolint:errcheck // stdout
	enc.Encode(map[string]any{ //nolint:errcheck // stdout
		"correct":   len(res.violations) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if len(res.violations) > 0 {
		for _, v := range res.violations {
			fmt.Fprintf(os.Stderr, "umbench: %s: VIOLATION: %s\n", name, v)
		}
		return 1
	}
	return 0
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// writeSpans writes the run's spans, one JSON object a line, under
// .bench_out/ in the working directory.
func writeSpans(name string, seed int64, t *tracer) error {
	dir := ".bench_out"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
