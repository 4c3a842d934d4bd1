// Command e2ebench is the repository's end-to-end benchmark: generated
// graph file → plan/open → spotlight partitioning → PageRank on the engine
// → serving index → closed-loop HTTP lookups, on two named workloads.
//
// Run it from the repository root through its launcher, which builds it
// from source:
//
//	bash e2ebench/run.sh --workload zipf-clustered --seed 1 --seconds 45 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of untraced runs; with
// --trace 1 it prints the per-layer metrics of a traced run, the per-layer
// self-time table and the tracing overhead. The last line of standard
// output is one JSON object {"correct","attempted","failed","metrics"}.
// The exit code is 0 only when every correctness and determinism check
// passed. See README.md for the workloads and the metric → layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// outDir holds generated graph files, span files and result records,
// relative to the directory the benchmark runs in.
const outDir = ".bench_build/e2ebench"

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measured time per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "e2ebench: want --trace 0|1, --seconds > 0 and no positional arguments")
		return 2
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 2
		}
		selected = []*workload{w}
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}

	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		res, err := run(config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, outDir: outDir, root: root})
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stdout, res)
		if err := writeRecord(outDir, res); err != nil {
			fmt.Fprintln(stderr, "e2ebench: writing result record:", err)
			return 1
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(selected) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func printReport(w io.Writer, r *result) {
	mode := "end-to-end (untraced)"
	defs := endToEnd
	if r.Trace {
		mode, defs = "per-layer (traced)", perLayer
	}
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g  %s\n", r.Workload, r.Env.Seed, r.Seconds, mode)
	fmt.Fprintf(w, "   nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n",
		r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.CPU, r.Env.Commit)
	fmt.Fprintf(w, "   graphs=%d partition-runs=%d lookup-rounds=%d edge-lookup-samples=%d (min %d per round)\n",
		r.Graphs, r.Runs, r.LookupRounds, r.LookupSamples, r.MinRoundSamples)
	for _, m := range defs {
		if v, ok := r.Metrics[m.name]; ok {
			fmt.Fprintf(w, "   %-28s %16.6f %s\n", m.name, v.Value, v.Unit)
		}
	}
	if r.LookupP99Us > 0 {
		fmt.Fprintf(w, "   %-28s %16.6f us (no bound; per-layer in traced runs)\n", "lookup_p99_us", r.LookupP99Us)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintln(w, "   self time by span:")
		printLayerTable(w, r.Layers)
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "   correct=%t attempted=%d failed=%d error_rate=%g\n", r.Correct, r.Attempted, r.Failed, errRate)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "   FAIL:", f)
	}
}

// writeRecord stores the full result, environment included, as JSON.
func writeRecord(dir string, r *result) error {
	dir = filepath.Join(dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", r.Workload, r.Env.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(body, '\n'), 0o644)
}
