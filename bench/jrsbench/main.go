// Command jrsbench is the repository's benchmark: four seeded workloads
// over the simulator (ooo, cachesim, startup, dist), end-to-end metrics
// from untraced runs, and a separate traced run that times each layer
// from outside, by wrapping the calls the benchmark makes into it. Every
// pass's output is checked against pinned digests and the repository's
// goldens. See bench/README.md.
//
//	jrsbench [-workload W|all] [-seed N] [-seconds S] [-trace 0|1]
//	         [-json FILE] [-spans FILE] [-expected FILE] [-record] [-hello]
//	jrsbench compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when any
// output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// childEnv marks a measuring child process and carries its index.
const childEnv = "JRSBENCH_CHILD"

// children is how many processes an untraced run spreads its passes
// over; each one's cold pass is one set-up sample.
const children = 5

// workers is the fixed concurrency of every pass: the runner's worker
// count and the number of in-process jrsd workers.
const workers = 2

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	jsonOut  string
	spansOut string
	expected string
	record   bool
	hello    bool
	root     string
}

// args renders the options a child needs for one workload.
func (o options) childArgs(workload string) []string {
	a := []string{"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds/children, 'g', -1, 64), "-root", o.root}
	if o.hello {
		a = append(a, "-hello")
	}
	return a
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("jrsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "all", "workload to run: ooo, cachesim, startup, dist or all")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds of timed passes per workload")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.jsonOut, "json", "", "append each workload's result as a JSON line to this file")
	fs.StringVar(&o.spansOut, "spans", "", "traced run: write the recorded spans as JSON lines to this file")
	fs.StringVar(&o.expected, "expected", "", "pinned output digests (default <root>/bench/expected.json)")
	fs.BoolVar(&o.record, "record", false, "run each workload serially once and pin its digest for this seed")
	fs.BoolVar(&o.hello, "hello", false, "run every workload on hello only, without the eight-program analyses (the smoke test's scale)")
	fs.StringVar(&o.root, "root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "jrsbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 0 {
		fmt.Fprintln(stderr, "jrsbench: -seconds must not be negative")
		return 2
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		fmt.Fprintf(stderr, "jrsbench: %v\n", err)
		return 1
	}
	o.root = root
	if o.expected == "" {
		o.expected = filepath.Join(root, "bench", "expected.json")
	}
	var selected []workloadDef
	for _, d := range defs {
		if o.workload == "all" || o.workload == d.name {
			selected = append(selected, o.def(d))
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "jrsbench: unknown workload %q\n", o.workload)
		return 2
	}
	if k := os.Getenv(childEnv); k != "" {
		idx, err := strconv.Atoi(k)
		if err != nil || len(selected) != 1 {
			fmt.Fprintf(stderr, "jrsbench: bad child invocation\n")
			return 2
		}
		return runChild(o, selected[0], idx, stdout, stderr)
	}
	if o.record {
		return recordDigests(o, selected, stdout, stderr)
	}

	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, d := range selected {
		var res *result
		if o.trace {
			res, err = tracedRun(o, d, stdout, stderr)
		} else {
			res, err = measure(o, d, stdout, stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "jrsbench: %s: %v\n", d.name, err)
			return 1
		}
		res.print(stdout)
		if o.jsonOut != "" {
			if err := appendJSON(o.jsonOut, o, d.name, res); err != nil {
				fmt.Fprintf(stderr, "jrsbench: %v\n", err)
				return 1
			}
		}
		total.add(d.name, res, len(selected) > 1)
	}
	line, err := json.Marshal(total.contract())
	if err != nil {
		fmt.Fprintf(stderr, "jrsbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// def applies -hello to a workload definition: hello is the only
// program, and the eight-program analyses are left out.
func (o options) def(d workloadDef) workloadDef {
	if o.hello {
		d.programs = []program{{"hello", 0}}
		d.analyze = false
	}
	return d
}

// label keys a workload's pinned digest in expected.json.
func (o options) label(workload string) string {
	l := fmt.Sprintf("%s/%d", workload, o.seed)
	if o.hello {
		l += "/hello"
	}
	return l
}
