// Command benchmark is the repository's end-to-end benchmark. From a
// seed alone it generates one 10,000-point discrete dataset and a
// workload's request sequence, starts the real pnnserve (and pnnrouter)
// binaries, drives them from this one process over at most two
// connections, checks sampled answers against an in-process pnn.New,
// and prints one line per metric followed by a JSON summary line.
//
// Build and run it from the repository root with benchmark/run.sh;
// see benchmark/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: read-cold, read-hot-routed, write-quantify or write-nonzero")
	seed := fs.Int64("seed", 1, "seed of the dataset and of every request sequence")
	seconds := fs.Int("seconds", 20, "length of the measured open loop")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run and an in-process replay instead of the end-to-end ones")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the built pnnserve and pnnrouter")
	out := fs.String("out", ".bench_build/out", "directory receiving results.json and trace.json")
	repeat := fs.Int("repeat", 1, "run seeds seed..seed+N-1 as child processes and report each metric's median, quartiles and spread against BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 3 || (*trace != 0 && *trace != 1) || *repeat < 1 {
		fmt.Fprintf(stderr, "benchmark: need -workload (one of the four), -seconds >= 3, -trace 0|1 and -repeat >= 1\n")
		return 2
	}
	if *repeat > 1 {
		if err := repeatRuns(stdout, stderr, args, *seed, *repeat); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin}
	cfg.out = filepath.Join(*out, fmt.Sprintf("%s-seed%d", w.name, *seed))
	if cfg.trace {
		cfg.out += "-trace"
	}
	res, err := runWorkload(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	for _, m := range res.order {
		v := res.Metrics[m]
		fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, m, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the summary line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string          // print order of Metrics
}

// writeJSON writes v as indented JSON to path, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
