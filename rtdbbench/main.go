// Command rtdbbench is rtdbd's end-to-end benchmark. It stands the server
// up in one process through the constructors rtdbd uses (WAL, server,
// netserve listener, two rtwire client connections), drives one of three
// named workloads for a fixed time, checks the outputs and the
// conservation laws, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is made twice, untraced and then with the seams wrapped, and the metrics
// are the per-layer ones. It exits non-zero when any correctness gate
// fails. Run it through run.sh from the repository root:
//
//	bash rtdbbench/run.sh --workload read-history --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest-durable, read-history or push-fanout")
		seed    = flag.Uint64("seed", 1, "workload seed (all values, choices and as-of targets derive from it)")
		seconds = flag.Int("seconds", 10, "measured run length in seconds")
		trace   = flag.Int("trace", 0, "1: add a traced run and report per-layer metrics")
		out     = flag.String("out", ".bench_build", "scratch directory for WAL files and span traces")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "rtdbbench: need -workload (%s), -seconds ≥ 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "rtdbbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, out: *out}
	var (
		res     *result
		metrics map[string]float64
		err     error
	)
	if *trace == 1 {
		res, metrics, err = tracedRun(cfg)
	} else {
		res, err = runWorkload(cfg)
		if res != nil {
			metrics = res.metrics
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtdbbench:", err)
		os.Exit(1)
	}
	correct := len(res.violations) == 0
	printReport(os.Stdout, w, *seed, res, metrics)
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "rtdbbench: correctness violation:", v)
	}
	line, err := json.Marshal(jsonResult(correct, res, metrics))
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtdbbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// jsonResult builds the final line. A metric the run could not measure
// (NaN: no samples) is left out rather than reported as a number.
func jsonResult(correct bool, res *result, metrics map[string]float64) jsonLine {
	out := jsonLine{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for name, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out.Metrics[name] = jsonMetric{Value: v, Unit: unitOf(name)}
	}
	return out
}

// units maps every reported metric to its unit.
var units = map[string]string{
	"setup_s":           "s",
	"commit_p50_us":     "us",
	"query_p50_us":      "us",
	"asof_p50_us":       "us",
	"read_ops_per_s":    "1/s",
	"firm_hit_ratio":    "ratio",
	"push_fresh_p50_us": "us",
	"push_fresh_p90_us": "us",
	"cpu_us_per_op":     "us",
	"heap_inuse_mb":     "MiB",
}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	return layerUnit(name)
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
