package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number. Timings measured over passes carry the
// sample count and quartiles behind their median.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// result is one workload's outcome: the output gate's verdict, the cell
// groups attempted and failed, and its metrics in print order.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	workload  string
	names     []string
	errs      []string
}

func newResult(workload string) *result {
	return &result{Correct: true, Metrics: map[string]metric{}, workload: workload}
}

func (r *result) set(name string, m metric) {
	if _, ok := r.Metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.Metrics[name] = m
}

// fail records an output-gate failure.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// print writes one line per metric: <workload> <metric> <value> <unit>.
func (r *result) print(w io.Writer) {
	for _, e := range r.errs {
		fmt.Fprintf(w, "%s FAIL %s\n", r.workload, e)
	}
	for _, n := range r.names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %.6g %s", r.workload, n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d q1=%.6g q3=%.6g", m.N, m.Q1, m.Q3)
		}
		fmt.Fprintln(w)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%s failed_frac %g ratio (%d of %d cell groups)\n", r.workload, frac, r.Failed, r.Attempted)
}

// add folds one workload's result into a run total; with prefix, metric
// names are qualified by workload.
func (r *result) add(workload string, o *result, prefix bool) {
	r.Correct = r.Correct && o.Correct
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for _, n := range o.names {
		name := n
		if prefix {
			name = workload + "." + n
		}
		r.set(name, o.Metrics[n])
	}
}

// contract is the last output line: exactly correct, attempted, failed
// and metrics, each metric exactly value and unit.
func (r *result) contract() map[string]any {
	ms := make(map[string]any, len(r.Metrics))
	for n, m := range r.Metrics {
		ms[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return map[string]any{"correct": r.Correct, "attempted": attempted, "failed": r.Failed, "metrics": ms}
}

// record is one line of a -json file, the input of `jrsbench compare`.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func appendJSON(path string, o options, workload string, r *result) error {
	line, err := json.Marshal(record{Workload: workload, Seed: o.seed, Trace: o.trace,
		Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quartiles returns the first and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(n=4), the method
// the benchmark's spread is defined by.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0]
	}
	q := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// summary is a median with its sample count and quartiles.
func summary(xs []float64, unit string) metric {
	q1, q3 := quartiles(xs)
	return metric{Value: median(xs), Unit: unit, N: len(xs), Q1: q1, Q3: q3}
}

// usage samples the process's CPU time and allocation counters.
type usage struct {
	cpu, gcCPU float64 // seconds
	alloc      uint64  // bytes allocated since start
	gcCycles   uint64
}

var usageNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/gc/cycles/total:gc-cycles"}

func sampleUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(usageNames))
	for i, n := range usageNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return usage{
		cpu:      tv(ru.Utime) + tv(ru.Stime),
		alloc:    s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		gcCycles: s[2].Value.Uint64(),
	}
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// passStat is one timed pass as a child measured it.
type passStat struct {
	Wall   float64 `json:"wall"`
	CPU    float64 `json:"cpu"`
	Alloc  uint64  `json:"alloc"`
	Cells  int     `json:"cells"`
	Failed int     `json:"failed"`
}

// childReport is a child's last output line.
type childReport struct {
	Passes []passStat `json:"passes"`
	Errors []string   `json:"errors"`
}

// newEnv makes the untraced environment of one process: a private work
// directory under the repository's build directory.
func newEnv(root string) (*env, error) {
	work := filepath.Join(root, ".bench_build", "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	return &env{work: work}, nil
}

// runChild is one measuring process: a cold pass (the end of set-up,
// announced on stdout), then timed passes for its share of -seconds.
// Child k runs passes 1+k, 1+k+children, ... so every timed pass of a
// run submits its grid in a different seeded order.
func runChild(o options, d workloadDef, k int, stdout, stderr io.Writer) int {
	in, err := newInputs(d, o.seed)
	if err != nil {
		fmt.Fprintf(stderr, "jrsbench: %v\n", err)
		return 1
	}
	e, err := newEnv(o.root)
	if err != nil {
		fmt.Fprintf(stderr, "jrsbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.work)
	cold, err := runPass(e, in, 0, workers)
	if err != nil {
		fmt.Fprintf(stderr, "jrsbench: %s cold pass: %v\n", d.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "cold %s\n", cold.digest())
	rep := childReport{Errors: gateCold(o.root, in, cold)}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		n := 1 + k + i*children
		u0 := sampleUsage()
		t0 := time.Now()
		p, err := runPass(e, in, n, workers)
		wall := time.Since(t0).Seconds()
		u1 := sampleUsage()
		if err != nil {
			fmt.Fprintf(stderr, "jrsbench: %s pass %d: %v\n", d.name, n, err)
			return 1
		}
		rep.Passes = append(rep.Passes, passStat{Wall: wall, CPU: u1.cpu - u0.cpu, Alloc: u1.alloc - u0.alloc, Cells: p.cells, Failed: p.failed})
		rep.Errors = append(rep.Errors, gatePass(in, n, cold, p)...)
		if !time.Now().Before(deadline) {
			break
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "jrsbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure is an untraced run of one workload: it starts the children one
// after another and turns their passes into the end-to-end metrics.
func measure(o options, d workloadDef, stdout, stderr io.Writer) (*result, error) {
	in, err := newInputs(d, o.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s inputs seed=%d %s\n", d.name, o.seed, in)
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := newResult(d.name)
	var setups, rss, walls, cpus, allocs []float64
	digests := map[string]bool{}
	for k := 0; k < children; k++ {
		c, err := startChild(exe, o.childArgs(d.name), k, stderr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.setup.Seconds())
		digests[c.cold] = true
		rss = append(rss, c.maxRSS)
		for _, p := range c.report.Passes {
			walls = append(walls, p.Wall)
			cpus = append(cpus, p.CPU)
			allocs = append(allocs, float64(p.Alloc)/(1<<20))
			res.Attempted += p.Cells
			res.Failed += p.Failed
		}
		for _, e := range c.report.Errors {
			res.fail("%s", e)
		}
	}
	var cold string
	for dg := range digests {
		cold = dg
	}
	if len(digests) != 1 {
		res.fail("cold-pass digests differ between processes")
	}
	fmt.Fprintf(stdout, "%s digest %s\n", d.name, cold)
	checkPinned(o, d.name, cold, res)
	res.set("wall_s", summary(walls, "s"))
	res.set("cpu_s", summary(cpus, "s"))
	res.set("alloc_mb", summary(allocs, "MB"))
	res.set("peak_rss_mb", summary(rss, "MB"))
	res.set("setup_s", summary(setups, "s"))
	return res, nil
}

// child is a finished measuring process.
type child struct {
	setup  time.Duration // exec to end of the cold pass
	cold   string
	maxRSS float64 // MB
	report childReport
}

func startChild(exe string, args []string, k int, stderr io.Writer) (*child, error) {
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", childEnv, k), "GOMAXPROCS=2")
	cmd.Stderr = stderr
	// Children die with the benchmark rather than outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var lines []string
	for sc.Scan() {
		if c.setup == 0 && strings.HasPrefix(sc.Text(), "cold ") {
			c.setup = time.Since(start)
			c.cold = strings.TrimPrefix(sc.Text(), "cold ")
			continue
		}
		lines = append(lines, sc.Text())
	}
	scanErr := sc.Err()
	if scanErr != nil {
		// Drain the pipe so the child can finish writing and exit.
		io.Copy(io.Discard, out)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("child %d: %w", k, err)
	}
	if scanErr != nil {
		return nil, fmt.Errorf("child %d: %w", k, scanErr)
	}
	if c.setup == 0 || len(lines) == 0 {
		return nil, errors.New("child ended without a report")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.report); err != nil {
		return nil, fmt.Errorf("child %d report: %w", k, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, nil
}
