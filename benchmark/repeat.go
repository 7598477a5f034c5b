package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is the part of BENCHMARK.json the benchmark reads back.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// repeatRuns runs this binary once per seed in seed..seed+n-1, each a
// child process with the same flags, and prints every metric's median,
// quartiles and spread (quartile distance over median), flagging an
// end-to-end spread beyond its BENCHMARK.json bound or a third of it
// (setup_s is exempt: it is judged by its median alone). A failed or
// incorrect run fails the whole repeat.
func repeatRuns(stdout, stderr io.Writer, args []string, seed int64, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, append(append([]string(nil), args...), "-repeat=1", "-seed="+strconv.FormatInt(s, 10))...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("seed %d: correct=%v, %d of %d requests failed", s, res.Correct, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(stderr, "seed %d done\n", s)
	}

	bounds := make(map[string]float64)
	if m, err := readManifest("BENCHMARK.json"); err == nil {
		for _, mm := range m.EndToEnd {
			if mm.Bound != nil {
				bounds[mm.Name] = *mm.Bound
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-28s %12s %12s %12s %8s %8s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "unit")
	for _, name := range names {
		xs := values[name]
		if len(xs) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		bound, flag := "-", ""
		if b, ok := bounds[name]; ok {
			bound = strconv.FormatFloat(b, 'f', 2, 64)
			switch {
			case name == "setup_s":
			case spread > b:
				flag = "  spread over bound"
			case spread > b/3:
				flag = "  spread over bound/3"
			}
		}
		fmt.Fprintf(stdout, "%-28s %12.6g %12.6g %12.6g %8.4f %8s %s%s\n", name, q1, q2, q3, spread, bound, units[name], flag)
	}
	return nil
}

// lastResult decodes the summary line: the last line of a run's
// standard output.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("summary line: %w", err)
	}
	return &res, nil
}
