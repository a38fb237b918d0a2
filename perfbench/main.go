// Command perfbench is demsort's measured benchmark: it writes a seeded
// gensort-format input, sorts it again and again on a real fleet of
// worker processes over the tcp transport (or one process for the
// single-node workload), validates every output with valsort and
// prints the metrics as one JSON line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload canon-uniform --seed 1 --seconds 10 --trace 0
//
// With --trace 0 every job runs untraced and the end-to-end metrics are
// reported; with --trace 1 untraced and traced jobs alternate and the
// per-layer metrics are reported. README.md lists the workloads and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) == 3 && os.Args[1] == "worker" {
		if err := runWorker(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "canon-uniform", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring time")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced jobs")
	flag.Parse()

	out, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// scratchDir holds each run's input, outputs and spill, under the
// build directory of the checkout the benchmark runs in.
const scratchDir = ".bench_build/perfbench"

func run(name string, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(scratchDir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up, untimed: the input, its valsort checksum, and one warm-up
	// job that fills the page cache and pools. The warm-up's output is
	// the reference every measured job must reproduce byte for byte.
	b := &bench{w: w, exe: exe, dir: dir, input: filepath.Join(dir, "input")}
	if b.inputSum, err = writeInput(w, seed, b.input); err != nil {
		return nil, fmt.Errorf("writing input: %w", err)
	}
	warm, err := b.runJob(false)
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}

	res := &result{Correct: true}
	var plain, tracedJobs []*job
	deadline := time.Now().Add(seconds)
	for time.Now().Before(deadline) {
		// Traced runs alternate with untraced ones, so the tracing
		// overhead compares jobs made under the same conditions.
		withTrace := traced && len(tracedJobs) < len(plain)
		res.Attempted++
		j, err := b.runJob(withTrace)
		switch {
		case err != nil:
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: job %d failed: %v\n", res.Attempted, err)
			if errors.Is(err, errValidation) {
				res.Correct = false
			}
		case j.digest != warm.digest:
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: job %d output differs from the warm-up's\n", res.Attempted)
		case withTrace:
			tracedJobs = append(tracedJobs, j)
		default:
			plain = append(plain, j)
		}
		if err == nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %d traced=%t wall=%.4fs setup=%.4fs cpu=%.3fs rss=%.1fMB\n",
				res.Attempted, withTrace, j.wallS, j.setupS, j.cpuS, j.peakRSSMB)
		}
	}
	if len(plain) == 0 || (traced && len(tracedJobs) == 0) {
		return nil, fmt.Errorf("no successful job in %d attempts", res.Attempted)
	}
	if traced {
		res.Metrics = perLayer(w, seed, plain, tracedJobs)
	} else {
		res.Metrics = endToEnd(w, plain, res)
	}
	return res, nil
}

// endToEnd reports what a user of the sorter sees, as medians over the
// successful jobs; failed jobs count only in ok_ratio.
func endToEnd(w workload, jobs []*job, res *result) map[string]metric {
	var mbps, setup, cpu, rss []float64
	for _, j := range jobs {
		mbps = append(mbps, float64(w.inputBytes())/1e6/j.wallS)
		setup = append(setup, j.setupS)
		cpu = append(cpu, j.cpuS/(float64(w.inputBytes())/1e9))
		rss = append(rss, j.peakRSSMB)
	}
	return map[string]metric{
		"sort_mbps":    {median(mbps), "MB/s"},
		"setup_s":      {median(setup), "s"},
		"cpu_s_per_gb": {median(cpu), "s/GB"},
		"peak_rss_mb":  {median(rss), "MB"},
		"ok_ratio":     {float64(res.Attempted-res.Failed) / float64(res.Attempted), "share"},
	}
}
