// Command perfbench drives the apq query service from outside and checks
// every reply it times. It serves through apq.NewServer on loopback HTTP,
// runs one workload with two closed-loop clients for a fixed window, and
// prints one JSON object as the last line of its output: the end-to-end
// metrics, or with -trace 1 the per-layer metrics of a traced run.
//
//	go run . -workload hot_mix -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

var workloads = map[string]func(*opts) (*outcome, error){
	"hot_mix":     hotMix,
	"cold_adhoc":  coldAdhoc,
	"rows_mutate": rowsMutate,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: hot_mix, cold_adhoc or rows_mutate")
	seed := flag.Int64("seed", 1, "seed of the request streams, spec draws and mutation batches")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	workDir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for the convergence store and the trace file")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload hot_mix|cold_adhoc|rows_mutate, -seconds ≥ 1, -trace 0|1\n")
		os.Exit(2)
	}
	o := &opts{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second, workDir: *workDir}
	if *trace == 1 {
		o.tr = newTracer()
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		if out == nil {
			os.Exit(1)
		}
	}
	res := result{Attempted: out.led.attempted, Failed: out.led.failed}
	// Wrong values, error replies and transport failures all count as
	// failed operations; correct reports whether every reply checked out.
	res.Correct = out.led.failed == 0 && err == nil
	if o.tr == nil {
		res.Metrics = endToEnd(out)
	} else {
		res.Metrics, err = perLayer(o, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
			res.Correct = false
		}
	}
	report(res, out)
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the metrics one per line, the sample counts and the first
// failure to standard error.
func report(res result, out *outcome) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "%-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(os.Stderr, "latency samples %d (p99 %.4f ms, not gated: see README), convergences %d, mutations %d, GOMAXPROCS %d, %s\n",
		len(out.lat), quantile(out.lat, 0.99), len(out.conv.ms), len(out.mutLat), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(os.Stderr, "operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	if out.led.first != "" {
		fmt.Fprintf(os.Stderr, "first failure: %s\n", out.led.first)
	}
}

// endToEnd computes the metrics a client of the service sees.
func endToEnd(out *outcome) map[string]metric {
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: peak RSS: %v\n", err)
	}
	speedups := make([]float64, 0, len(out.speedups))
	for _, v := range out.speedups {
		speedups = append(speedups, v)
	}
	return map[string]metric{
		"setup_s":         {median(out.setupS), "s"},
		"throughput_rps":  {float64(len(out.lat)) / out.windowS, "1/s"},
		"lat_p50_ms":      {quantile(out.lat, 0.5), "ms"},
		"converge_ms_p50": {median(out.conv.ms), "ms"},
		"converge_runs":   {mean(out.conv.runs), "count"},
		"virtual_speedup": {geomean(speedups), "x"},
		"result_mb_per_s": {float64(out.resultBytes) / 1e6 / out.windowS, "MB/s"},
		"mutate_p50_ms":   {median(out.mutLat), "ms"},
		"peak_rss_mb":     {rss, "MB"},
	}
}
