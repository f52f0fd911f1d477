package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// side is one side's runs of one (workload, metric).
type side struct {
	values []float64
	// within is a run's own quartile spread over its passes, used when a
	// side has a single run. Metrics with fewer than minWithin samples
	// per run (set-up, peak RSS: one per child) have none.
	within float64
}

const minWithin = 5

// spread is the distance between the quartiles as a share of the
// median: across runs when there are several, else within the run.
func (s side) spread() float64 {
	if len(s.values) < 2 {
		return s.within
	}
	q1, q3 := quartiles(s.values)
	return (q3 - q1) / median(s.values)
}

// verdict applies one metric's bound to parent runs a and change runs b.
// Where the spread is wider than the bound the result is unresolved,
// unless every run of b reads better than every run of a.
func verdict(m boundedMetric, a, b side) (string, float64) {
	ma, mb := median(a.values), median(b.values)
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case math.Max(a.spread(), b.spread()) > m.Bound:
		if allBetter(m, a.values, b.values) {
			return "better", worse
		}
		return "unresolved", worse
	case worse > m.Bound:
		return "worse", worse
	case worse < -m.Bound:
		return "better", worse
	}
	return "within-bound", worse
}

func allBetter(m boundedMetric, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "lower" && y >= x) || (m.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// compareCmd is `jrsbench compare A.json B.json`: per (workload,
// end-to-end metric) it prints better, worse, within-bound or
// unresolved for B against A, and exits 1 when anything is worse.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jrsbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root (holds BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: jrsbench compare [-root DIR] A.json B.json")
		return 2
	}
	bench, err := loadBenchmark(*root)
	if err != nil {
		fmt.Fprintf(stderr, "jrsbench: %v\n", err)
		return 1
	}
	var sides [2]map[string]map[string]*side
	for i, path := range fs.Args() {
		recs, err := loadRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "jrsbench: %v\n", err)
			return 1
		}
		sides[i] = map[string]map[string]*side{}
		for _, r := range recs {
			if !r.Correct {
				fmt.Fprintf(stdout, "%s: a run in %s failed its output checks\n", r.Workload, path)
			}
			if sides[i][r.Workload] == nil {
				sides[i][r.Workload] = map[string]*side{}
			}
			for name, m := range r.Metrics {
				s := sides[i][r.Workload][name]
				if s == nil {
					s = &side{}
					sides[i][r.Workload][name] = s
				}
				s.values = append(s.values, m.Value)
				if m.N >= minWithin && m.Value != 0 {
					s.within = (m.Q3 - m.Q1) / m.Value
				}
			}
		}
	}
	var workloads []string
	for w := range sides[0] {
		if sides[1][w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	code := 0
	for _, w := range workloads {
		for _, m := range bench.EndToEnd {
			a, b := sides[0][w][m.Name], sides[1][w][m.Name]
			if a == nil || b == nil {
				continue
			}
			v, change := verdict(m, *a, *b)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-8s %-12s %-12s A=%.4g B=%.4g worse-by=%+.1f%% bound=%.0f%% spread=%.1f%%/%.1f%% runs=%d/%d\n",
				w, m.Name, v, median(a.values), median(b.values), 100*change, 100*m.Bound,
				100*a.spread(), 100*b.spread(), len(a.values), len(b.values))
		}
	}
	return code
}
