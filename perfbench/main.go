// Command perfbench is DrTM's end-to-end benchmark. One invocation sets up
// one workload (or all of them), drives it with a closed loop of clients for
// a fixed wall-clock time, checks the database against values computed apart
// from the program, and prints every metric by name and unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer ones. See README.md for the workloads,
// the metrics and which layer metric should move which end-to-end metric.
//
//	perfbench --workload tpcc-mix --seed 1 --seconds 10 --trace 0
//	perfbench compare <results-dir-A> <results-dir-B>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one typed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is one workload run as stored for compare mode: the summary
// plus what produced it and the failure and check details.
type resultFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Failures map[string]int64  `json:"failures"`
	Messages map[string]string `json:"messages,omitempty"`
	Check    string            `json:"check"`
	summary
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+
		", or all (social-scan, outside the benchmark, runs only when named; see README.md)")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in wall-clock seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for result files, traces and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	var specs []*spec
	if *name == "all" {
		specs = workloads
	} else if sp := lookup(*name); sp != nil {
		specs = []*spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	total := summary{Correct: true, Metrics: map[string]metric{}}
	for _, sp := range specs {
		rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out}
		res, err := run(sp, rc, fullScale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
			return 1
		}
		printResult(stdout, res)
		path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", sp.name, *seed, *trace))
		if err := writeJSON(path, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(specs) > 1 {
				k = sp.name + "." + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printResult writes the human-readable report of one workload run.
func printResult(w io.Writer, r *resultFile) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%g %s\n", r.Workload, r.Seed, r.Seconds, mode)
	fmt.Fprintf(w, "   attempted=%d failed=%d", r.Attempted, r.Failed)
	for _, c := range failureCauses {
		fmt.Fprintf(w, " %s=%d", c, r.Failures[c])
	}
	fmt.Fprintln(w)
	for c, msg := range r.Messages {
		fmt.Fprintf(w, "   first %s: %s\n", c, msg)
	}
	fmt.Fprintf(w, "   check: %s\n", r.Check)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "   %-36s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
