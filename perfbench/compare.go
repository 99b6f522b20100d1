package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// compareMain reads two directories of result files (as written by runs
// with --out) and prints, per workload and metric, each side's median and
// quartiles and the change against the metric's bound. A metric whose
// run-to-run spread (quartile distance over median) exceeds its bound on
// either side is unresolved. Exits 1 when a resolved metric regressed.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark description with each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] <results-dir-A> <results-dir-B>")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	var bs benchSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", *specPath+":", err)
		return 1
	}
	a, err := loadResults(fs.Arg(0))
	if err == nil {
		var b map[string]map[string][]float64
		b, err = loadResults(fs.Arg(1))
		if err == nil {
			return printComparison(stdout, bs, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 1
}

// loadResults maps workload -> metric -> values over every result file in
// dir. End-to-end and per-layer metrics have distinct names, so runs of
// both kinds can share a directory.
func loadResults(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(raw, &r); err != nil || r.Workload == "" {
			continue // not a result file
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for k, m := range r.Metrics {
			out[r.Workload][k] = append(out[r.Workload][k], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return out, nil
}

// stats returns the median and the quartiles as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method).
func stats(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func spread(v []float64) float64 {
	q1, med, q3 := stats(v)
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

func printComparison(w io.Writer, bs benchSpec, a, b map[string]map[string][]float64) int {
	var names []string
	for k := range a {
		if b[k] != nil {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	regressed := false
	row := func(wl, metric, unit string, av, bv []float64, better string, bound float64, gated bool) {
		aq1, am, aq3 := stats(av)
		bq1, bm, bq3 := stats(bv)
		change := math.NaN()
		if am != 0 {
			change = (bm - am) / math.Abs(am)
		}
		verdict := "-"
		if gated {
			worse := change
			if better == "higher" {
				worse = -change
			}
			switch {
			case spread(av) > bound || spread(bv) > bound:
				verdict = "unresolved"
			case worse > bound:
				verdict = "REGRESSION"
				regressed = true
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(w, "%-15s %-32s %-6s A %12.5g [%.5g, %.5g]  B %12.5g [%.5g, %.5g]  %+7.2f%%",
			wl, metric, unit, am, aq1, aq3, bm, bq1, bq3, 100*change)
		if gated {
			fmt.Fprintf(w, "  bound %5.1f%%  %s", 100*bound, verdict)
		}
		fmt.Fprintln(w)
	}
	for _, wl := range names {
		for _, m := range bs.EndToEnd {
			if av, bv := a[wl][m.Name], b[wl][m.Name]; len(av) > 0 && len(bv) > 0 {
				row(wl, m.Name, m.Unit, av, bv, m.Better, m.Bound, true)
			}
		}
		for _, m := range bs.PerLayer {
			if av, bv := a[wl][m.Name], b[wl][m.Name]; len(av) > 0 && len(bv) > 0 {
				row(wl, m.Name, m.Unit, av, bv, m.Better, 0, false)
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}
